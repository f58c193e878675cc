package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Performance-regression gate. CI runs the hot-path benchmarks
// (BenchmarkCursorVsMaterialize, BenchmarkHotScanLike, BenchmarkStreamMatch)
// with -benchmem and feeds the output through CheckBOpRegression and
// CheckNsOpRegression against the recorded baselines in
// internal/bench/testdata. B/op is the primary gate because allocation
// volume is deterministic for a fixed workload, so a 2× tolerance catches
// real regressions (an accidental materialization, a lost buffer reuse)
// without flaking. ns/op does vary with the CI machine, so its gate runs at
// a much wider tolerance — it exists to catch order-of-magnitude collapses
// (a vectorized path silently falling back to per-row evaluation, a pruned
// scan decoding everything), not single-digit percentage drift.

// benchLine matches a `go test -bench -benchmem` result line, capturing the
// benchmark name and the B/op value. The optional -N suffix is the
// GOMAXPROCS tag go test appends on multi-core runs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+.*?\s(\d+(?:\.\d+)?) B/op`)

// nsLine matches the same result line, capturing the ns/op value, which
// immediately follows the iteration count.
var nsLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

func parseBenchMetric(r io.Reader, re *regexp.Regexp) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := re.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bench line %q: %w", sc.Text(), err)
		}
		// With `-count N` each benchmark reports N times; keep the minimum.
		// The best-of run is the least-interfered-with measurement (a
		// genuine regression slows every run, scheduler noise only some).
		if prev, ok := out[m[1]]; !ok || v < prev {
			out[m[1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseBenchBOp extracts benchmark-name → B/op from `go test -bench X
// -benchmem` output. Non-benchmark lines (PASS, ok, metadata) are ignored.
func ParseBenchBOp(r io.Reader) (map[string]float64, error) {
	return parseBenchMetric(r, benchLine)
}

// ParseBenchNsOp extracts benchmark-name → ns/op from `go test -bench X`
// output. Non-benchmark lines are ignored.
func ParseBenchNsOp(r io.Reader) (map[string]float64, error) {
	return parseBenchMetric(r, nsLine)
}

// ParseBaseline reads a baseline file: one `<benchmark-name> <b/op>` pair
// per line, '#' comments and blank lines skipped.
func ParseBaseline(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("baseline line %d: want `name b/op`, got %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("baseline line %d: %w", line, err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckBOpRegression fails if any baselined benchmark's measured B/op
// exceeds factor× its baseline, or if a baselined benchmark is missing from
// the measured set (a silently renamed or deleted benchmark would otherwise
// un-gate itself). Measured benchmarks without a baseline pass freely — new
// benchmarks opt in by being added to the baseline file.
func CheckBOpRegression(baseline, measured map[string]float64, factor float64) error {
	return checkRegression("B/op", baseline, measured, factor)
}

// CheckNsOpRegression is CheckBOpRegression for wall time. Callers pass a
// wide factor (CI uses 5×): the gate exists to catch collapses, not noise.
func CheckNsOpRegression(baseline, measured map[string]float64, factor float64) error {
	return checkRegression("ns/op", baseline, measured, factor)
}

func checkRegression(metric string, baseline, measured map[string]float64, factor float64) error {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var fails []string
	for _, name := range names {
		want := baseline[name]
		got, ok := measured[name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s: baselined but not measured", name))
		case got > want*factor:
			fails = append(fails, fmt.Sprintf("%s: %.0f %s, over %.1f× baseline %.0f",
				name, got, metric, factor, want))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("%s regression:\n  %s", metric, strings.Join(fails, "\n  "))
	}
	return nil
}
