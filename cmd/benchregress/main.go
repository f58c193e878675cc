// Command benchregress gates CI on performance regressions: it parses one
// or more `go test -bench -benchmem` output files, compares each baselined
// benchmark's B/op against internal/bench/testdata/bop_baseline.txt (and,
// when -ns-baseline is given, its ns/op against that file's ceilings at a
// wider tolerance), and exits non-zero when any exceeds its factor.
//
//	go test -run '^$' -bench BenchmarkCursorVsMaterialize -benchmem -benchtime 5x . > out.txt
//	benchregress -baseline internal/bench/testdata/bop_baseline.txt \
//	    -ns-baseline internal/bench/testdata/nsop_baseline.txt out.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aiql/internal/bench"
)

func main() {
	baselinePath := flag.String("baseline", "internal/bench/testdata/bop_baseline.txt",
		"baseline file of `name b/op` pairs")
	factor := flag.Float64("factor", 2, "fail when measured B/op exceeds factor x baseline")
	nsBaselinePath := flag.String("ns-baseline", "",
		"optional baseline file of `name ns/op` pairs; empty disables the wall-time gate")
	nsFactor := flag.Float64("ns-factor", 5,
		"fail when measured ns/op exceeds ns-factor x baseline (wide: machines differ)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchregress [-baseline file] [-factor n] [-ns-baseline file] [-ns-factor n] bench-output.txt...")
		os.Exit(2)
	}

	baseline := loadBaseline(*baselinePath)
	bop := make(map[string]float64)
	nsop := make(map[string]float64)
	for _, path := range flag.Args() {
		mergeMeasured(path, bop, bench.ParseBenchBOp)
		mergeMeasured(path, nsop, bench.ParseBenchNsOp)
	}

	if err := bench.CheckBOpRegression(baseline, bop, *factor); err != nil {
		fatal(err)
	}
	fmt.Printf("bench-regress: %d benchmarks within %.1fx of B/op baseline\n", len(baseline), *factor)

	if *nsBaselinePath != "" {
		nsBaseline := loadBaseline(*nsBaselinePath)
		if err := bench.CheckNsOpRegression(nsBaseline, nsop, *nsFactor); err != nil {
			fatal(err)
		}
		fmt.Printf("bench-regress: %d benchmarks within %.1fx of ns/op baseline\n", len(nsBaseline), *nsFactor)
	}
}

func loadBaseline(path string) map[string]float64 {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := bench.ParseBaseline(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return m
}

func mergeMeasured(path string, into map[string]float64, parse func(io.Reader) (map[string]float64, error)) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := parse(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	for name, v := range m {
		// Min-merge across files for the same reason the parser min-merges
		// across -count repetitions: keep the least-noisy measurement.
		if prev, ok := into[name]; !ok || v < prev {
			into[name] = v
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchregress:", err)
	os.Exit(1)
}
