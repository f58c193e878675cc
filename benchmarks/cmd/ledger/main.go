// Command ledger runs the service ledger: real aiqld processes driven over
// HTTP by one load generator, every answer checked against an in-process
// reference.
//
// Driver form — one workload, one pass, the result as the last line of
// standard output:
//
//	ledger --aiqld bin/aiqld --workload hunt_tiered --seed 3 --seconds 10 --trace 0
//
// Ledger form — every workload, both passes, every metric printed by name
// with its unit and sample count, optionally appended to a results file:
//
//	ledger --aiqld bin/aiqld --workload all --seed 1 --runs 5 --out results/BENCH_11.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"syscall"

	"aiql/benchmarks/harness"
	"aiql/benchmarks/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "self-test scale (10 hosts x 3 days x 1500 events)")
		runs     = flag.Int("runs", 1, "with --workload all: repeat every pass this many times, on consecutive seeds")
		out      = flag.String("out", "", "with --workload all: append the runs to this results file")
		aiqld    = flag.String("aiqld", "", "path of the aiqld binary under test")
		workDir  = flag.String("workdir", ".bench_build/work", "scratch directory for data dirs and daemon logs")
		results  = flag.String("results-dir", "benchmarks/results", "where the traced pass writes trace_<workload>.json")
	)
	flag.Parse()
	if *aiqld == "" {
		fatal(errors.New("--aiqld is required (benchmarks/run.sh builds it and passes it)"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := harness.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
		Aiqld: *aiqld, WorkDir: *workDir, ResultsDir: *results, Log: os.Stderr,
	}
	if *workload != "all" {
		res, err := harness.Run(ctx, cfg)
		if err != nil {
			stop()
			fatal(err)
		}
		fmt.Fprint(os.Stderr, res.Table(metricNames(res.Traced)))
		fmt.Println(res.FormatLine())
		return
	}

	var all []*harness.Result
	failed := false
	for run := 0; run < *runs; run++ {
		for _, name := range workloads.Names {
			for _, traced := range []bool{false, true} {
				cfg.Workload, cfg.Seed, cfg.Trace = name, *seed+int64(run), traced
				res, err := harness.Run(ctx, cfg)
				if err != nil {
					stop()
					fatal(err)
				}
				fmt.Print(res.Table(metricNames(traced)))
				failed = failed || !res.Correct
				all = append(all, res)
			}
		}
	}
	if *out != "" {
		if err := appendRuns(*out, all); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// metricNames is the report order of a pass's metrics.
func metricNames(traced bool) []string {
	if !traced {
		return harness.EndToEnd
	}
	layers, err := workloads.Layers()
	if err != nil {
		fatal(err)
	}
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	return names
}

// appendRuns adds runs to a results file ({"runs": [...]}), creating it.
func appendRuns(path string, runs []*harness.Result) error {
	var file struct {
		Runs []*harness.Result `json:"runs"`
	}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, runs...)
	raw, err = json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(1)
}
