// Command ledgerdiff compares two ledger results files with the bounds the
// benchmark fixed, one row per (workload, metric):
//
//	ledgerdiff benchmarks/results/BENCH_11.json new.json
//
// A metric is "regressed" when the new median is worse than the base
// median by more than its bound, "unresolved" when either side's spread
// (interquartile range over median) is wider than the bound — the runs
// cannot tell — and "unchanged" otherwise. End-to-end bounds come from
// BENCHMARK.json; the client-observed metrics only some workloads have
// (ingest_ack, emit, disk bytes) carry theirs in workloads/layers.json.
// Exit status 1 when any row regressed or a workload failed more
// operations than in the base file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"aiql/benchmarks/harness"
	"aiql/benchmarks/workloads"
)

// gate is one metric's regression rule.
type gate struct {
	bound  float64
	higher bool // larger is better
	// workloads restricts the gate; nil applies it everywhere.
	workloads map[string]bool
}

type resultsFile struct {
	Runs []*harness.Result `json:"runs"`
}

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the end-to-end bounds")
	all := flag.Bool("all", false, "also list metrics that carry no bound (no verdict)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ledgerdiff [--benchmark BENCHMARK.json] [--all] base.json new.json")
		os.Exit(2)
	}
	gates, order, err := loadGates(*benchmark)
	if err != nil {
		fatal(err)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	next, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	regressed := false
	fmt.Printf("%-13s %-38s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	for _, w := range workloads.Names {
		bf, ba := failures(base, w)
		nf, na := failures(next, w)
		if na == 0 || ba == 0 {
			continue
		}
		note := ""
		if nf > bf {
			note = "  MORE FAILURES"
			regressed = true
		}
		fmt.Printf("%-13s %-38s %12s %12s%s\n", w, "failed/attempted",
			fmt.Sprintf("%d/%d", bf, ba), fmt.Sprintf("%d/%d", nf, na), note)
		for _, name := range order {
			g, gated := gates[name]
			if gated && g.workloads != nil && !g.workloads[w] {
				gated = false
			}
			if !gated && !*all {
				continue
			}
			b, n := values(base, w, name), values(next, w, name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			bm, nm := median(b), median(n)
			change := 0.0
			if bm != 0 {
				change = (nm - bm) / bm
			}
			spread := max(spreadOf(b), spreadOf(n))
			verdict := ""
			if gated {
				worse := change
				if g.higher {
					worse = -change
				}
				switch {
				case spread > g.bound:
					verdict = "unresolved"
				case worse > g.bound:
					verdict = "regressed"
					regressed = true
				default:
					verdict = "unchanged"
				}
				if len(b) < 4 || len(n) < 4 {
					verdict += " (fewer than 4 runs: no spread)"
				}
			}
			bound := ""
			if gated {
				bound = fmt.Sprintf("%.0f%%", 100*g.bound)
			}
			fmt.Printf("%-13s %-38s %12.4f %12.4f %+7.1f%% %7.1f%% %7s  %s\n",
				w, name, bm, nm, 100*change, 100*spread, bound, verdict)
		}
	}
	if regressed {
		os.Exit(1)
	}
}

// loadGates reads the bounds: BENCHMARK.json's end_to_end list and the
// bounded entries of workloads/layers.json. order is the report order.
func loadGates(benchmark string) (map[string]gate, []string, error) {
	raw, err := os.ReadFile(benchmark)
	if err != nil {
		return nil, nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", benchmark, err)
	}
	gates := make(map[string]gate)
	var order []string
	for _, m := range def.EndToEnd {
		gates[m.Name] = gate{bound: m.Bound, higher: m.Better == "higher"}
		order = append(order, m.Name)
	}
	layers, err := workloads.Layers()
	if err != nil {
		return nil, nil, err
	}
	for _, l := range layers {
		order = append(order, l.Name)
		if l.Bound == 0 {
			continue
		}
		g := gate{bound: l.Bound, higher: l.Better == "higher", workloads: make(map[string]bool)}
		for _, mv := range l.Moves {
			g.workloads[mv.Workload] = true
		}
		gates[l.Name] = g
	}
	return gates, order, nil
}

func load(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every run of a workload.
func values(f *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(f *resultsFile, workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spreadOf is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(xs, n=4) — the definition the benchmark contract
// uses. 0 for fewer than 4 values.
func spreadOf(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledgerdiff:", err)
	os.Exit(2)
}
