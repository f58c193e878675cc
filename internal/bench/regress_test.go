package bench

import (
	"os"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: aiql
BenchmarkCursorVsMaterialize/materialize         	       5	  15305787 ns/op	10935568 B/op	     475 allocs/op
BenchmarkCursorVsMaterialize/cursor-8            	       5	     40785 ns/op	   35792 B/op	     131 allocs/op
BenchmarkStreamMatch/rules=0         	       5	   7252467 ns/op	   4264870 events/sec	 7121456 B/op	    8934 allocs/op
PASS
ok  	aiql	0.172s
`

func TestParseBenchBOp(t *testing.T) {
	got, err := ParseBenchBOp(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkCursorVsMaterialize/materialize": 10935568,
		"BenchmarkCursorVsMaterialize/cursor":      35792, // -8 GOMAXPROCS tag stripped
		"BenchmarkStreamMatch/rules=0":             7121456,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

func TestParseBenchNsOp(t *testing.T) {
	got, err := ParseBenchNsOp(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkCursorVsMaterialize/materialize": 15305787,
		"BenchmarkCursorVsMaterialize/cursor":      40785,
		"BenchmarkStreamMatch/rules=0":             7252467,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

func TestCheckNsOpRegression(t *testing.T) {
	baseline := map[string]float64{"BenchA": 1000}
	if err := CheckNsOpRegression(baseline, map[string]float64{"BenchA": 4900}, 5); err != nil {
		t.Errorf("within 5×: %v", err)
	}
	err := CheckNsOpRegression(baseline, map[string]float64{"BenchA": 5100}, 5)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Errorf("5.1× wall-time collapse not flagged: %v", err)
	}
}

// TestParseBenchKeepsMinOfRepeats: with `-count N` the same benchmark name
// appears N times; the parser must keep the fastest (least-interfered) run
// so the tight ratio gate doesn't flake on scheduler noise.
func TestParseBenchKeepsMinOfRepeats(t *testing.T) {
	out := "BenchmarkX/a 5 300 ns/op 100 B/op 1 allocs/op\n" +
		"BenchmarkX/a 5 210 ns/op 90 B/op 1 allocs/op\n" +
		"BenchmarkX/a 5 250 ns/op 110 B/op 1 allocs/op\n"
	ns, err := ParseBenchNsOp(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if ns["BenchmarkX/a"] != 210 {
		t.Errorf("ns/op min of repeats = %v, want 210", ns["BenchmarkX/a"])
	}
	bop, err := ParseBenchBOp(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if bop["BenchmarkX/a"] != 90 {
		t.Errorf("B/op min of repeats = %v, want 90", bop["BenchmarkX/a"])
	}
}

func TestParseBaselineRejectsMalformed(t *testing.T) {
	if _, err := ParseBaseline(strings.NewReader("name extra 12\n")); err == nil {
		t.Error("three-field line accepted")
	}
	if _, err := ParseBaseline(strings.NewReader("name notanumber\n")); err == nil {
		t.Error("non-numeric b/op accepted")
	}
}

func TestCheckBOpRegression(t *testing.T) {
	baseline := map[string]float64{"BenchA": 1000, "BenchB": 500}
	if err := CheckBOpRegression(baseline, map[string]float64{"BenchA": 1900, "BenchB": 400}, 2); err != nil {
		t.Errorf("within 2×: %v", err)
	}
	err := CheckBOpRegression(baseline, map[string]float64{"BenchA": 2100, "BenchB": 400}, 2)
	if err == nil || !strings.Contains(err.Error(), "BenchA") {
		t.Errorf("2.1× regression not flagged: %v", err)
	}
	err = CheckBOpRegression(baseline, map[string]float64{"BenchA": 900}, 2)
	if err == nil || !strings.Contains(err.Error(), "BenchB") {
		t.Errorf("missing baselined benchmark not flagged: %v", err)
	}
	// New benchmarks without a baseline are not gated.
	if err := CheckBOpRegression(baseline, map[string]float64{"BenchA": 900, "BenchB": 400, "BenchC": 1 << 30}, 2); err != nil {
		t.Errorf("un-baselined benchmark gated: %v", err)
	}
}

// TestShippedBaselineParses guards the checked-in baseline file itself: a
// typo there would otherwise only surface as a CI-step failure.
func TestShippedBaselineParses(t *testing.T) {
	f, err := os.Open("testdata/bop_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := ParseBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BenchmarkCursorVsMaterialize/materialize",
		"BenchmarkCursorVsMaterialize/cursor",
		"BenchmarkStreamMatch/rules=20+broad",
		"BenchmarkHotScanLike/columnar",
		"BenchmarkColdScanLike/filtered",
		"BenchmarkColdScanLike/matching",
	} {
		if _, ok := base[name]; !ok {
			t.Errorf("baseline file missing %s", name)
		}
	}

	nf, err := os.Open("testdata/nsop_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	nsBase, err := ParseBaseline(nf)
	if err != nil {
		t.Fatal(err)
	}
	for name := range base {
		if _, ok := nsBase[name]; !ok {
			t.Errorf("ns/op baseline file missing %s", name)
		}
	}
}
