package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aiql/benchmarks/workloads"
)

// The self-test runs every workload at the smoke scale (10 hosts × 3 days
// × 1 500 events, 2 s windows) against a real aiqld built from this
// checkout.

var (
	testAiqld string
	testWork  string
)

func TestMain(m *testing.M) {
	// Everything the self-test writes stays in the checkout's git-ignored
	// build directory, where run.sh also works.
	scratch, err := filepath.Abs("../../.bench_build")
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(scratch, "selftest-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testAiqld, testWork = filepath.Join(dir, "aiqld"), filepath.Join(dir, "work")
	build := exec.Command("go", "build", "-o", testAiqld, "aiql/cmd/aiqld")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building aiqld: %v\n%s", err, out)
		os.Exit(1)
	}
	// The four workloads run side by side whatever GOMAXPROCS is: they
	// mostly wait on their daemons.
	flag.Parse()
	if err := flag.Set("test.parallel", "4"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smoke(workload string, trace bool) Config {
	return Config{
		Workload: workload, Seed: 7, Seconds: 2, Trace: trace, Smoke: true,
		Aiqld: testAiqld, WorkDir: testWork,
	}
}

// children lists the live child processes of this test binary.
func children(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		// pid (comm) state ppid ...
		rest := raw[bytes.LastIndexByte(raw, ')')+1:]
		fields := strings.Fields(string(rest))
		if len(fields) < 2 || fields[0] == "Z" {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == os.Getpid() {
			out = append(out, string(raw[:bytes.LastIndexByte(raw, ')')+1]))
		}
	}
	return out
}

// TestDaemonsReapedOnFailure drives a cluster whose coordinator cannot
// start: the run must fail, name a stderr log that exists, and leave no
// worker behind.
func TestDaemonsReapedOnFailure(t *testing.T) {
	wrapper := filepath.Join(filepath.Dir(testAiqld), "aiqld-no-coordinator")
	script := "#!/bin/sh\nfor a in \"$@\"; do [ \"$a\" = coordinator ] && { echo 'refusing to coordinate' >&2; exit 3; }; done\nexec " + testAiqld + " \"$@\"\n"
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := smoke("cluster_r2", false)
	cfg.Aiqld = wrapper
	_, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("the run succeeded without a coordinator")
	}
	m := regexp.MustCompile(`daemon stderr: (\S+)\)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("the failure does not name a stderr log: %v", err)
	}
	log, readErr := os.ReadFile(m[1])
	if readErr != nil || !strings.Contains(string(log), "refusing to coordinate") {
		t.Errorf("stderr log %s: %v, content %q", m[1], readErr, log)
	}
	if left := children(t); len(left) > 0 {
		t.Errorf("child processes left behind after a failed run: %v", left)
	}
}

// TestCorruptedReferenceIsCaught alters one text's expected rows: the run
// must count every request for it as failed instead of reporting success.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	cfg := smoke("apt_hot", false)
	cfg.Seconds = 0.2
	cfg.corrupt = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want failed operations", res.Correct, res.Failed)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "differ from the reference") {
		t.Errorf("failures = %q", res.Failures)
	}
}

// TestSmoke runs both passes of all four workloads and checks that every
// named metric is emitted with its unit, that no operation fails, and the
// workload-specific invariants.
func TestSmoke(t *testing.T) {
	layers, err := workloads.Layers()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				res, err := Run(context.Background(), smoke(name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("trace=%v: %d/%d operations failed: %q", trace, res.Failed, res.Attempted, res.Failures)
				}
				if !trace {
					for _, metric := range EndToEnd {
						m, ok := res.Metrics[metric]
						if !ok || m.Unit == "" || m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %+v, want a positive value with a unit", metric, m)
						}
					}
					if len(res.Metrics) != len(EndToEnd) {
						t.Errorf("untraced pass reports %d metrics, want exactly the %d end-to-end ones", len(res.Metrics), len(EndToEnd))
					}
					continue
				}
				for _, l := range layers {
					if m, ok := res.Metrics[l.Name]; !ok || m.Unit != l.Unit {
						t.Errorf("layer metric %s = %+v, want unit %q", l.Name, m, l.Unit)
					}
				}
				if len(res.Metrics) != len(layers) {
					t.Errorf("traced pass reports %d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(layers))
				}
				positive := []string{"storage.scan_ms", "engine.plan_ms", "lexer.lex_us", "wal.append_mb_per_s", "stream.match_events_per_s", "obs.trace_overhead_ratio"}
				switch name {
				case "hunt_tiered":
					// The tier check: the window read both tiers.
					positive = append(positive, "storage.hot_batches_per_query", "storage.blocks_decoded_per_query", "disk_bytes_per_event")
				case "ingest_mixed":
					positive = append(positive, "ingest_ack_p95_ms", "emit_p95_ms", "storage.compactions", "disk_bytes_per_event", "stream.emitted")
				case "cluster_r2":
					positive = append(positive, "cluster.legs_per_query", "client.wide_p50_ms", "cluster.wide_vs_inproc_ratio")
				}
				for _, metric := range positive {
					if res.Metrics[metric].Value <= 0 {
						t.Errorf("%s = %v, want > 0", metric, res.Metrics[metric].Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to what the harness
// emits: the same workloads, end-to-end metrics and per-layer metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		d, err := workloads.Load(w.Name, false)
		if err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		} else if d.Why == "" || w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads.Names) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloads.Names)
	}
	names = nil
	for _, m := range def.EndToEnd {
		names = append(names, m.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", names, EndToEnd)
	}
	layers, err := workloads.Layers()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(def.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, workloads/layers.json %d", len(def.PerLayer), len(layers))
	}
	for i, l := range layers {
		if p := def.PerLayer[i]; p.Name != l.Name || p.Unit != l.Unit || p.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, workloads/layers.json has %+v", i, p, l)
		}
	}
}
