package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/storage"
)

func buildAiqld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aiqld")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUsageErrorsExitNonZero covers the flag-validation paths: a single
// server without data, a coordinator without workers, and an unknown role
// must all fail fast with a hint, not start an empty service.
func TestUsageErrorsExitNonZero(t *testing.T) {
	bin := buildAiqld(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no data", nil, "provide -data"},
		{"coordinator without workers", []string{"-role", "coordinator"}, "-workers"},
		{"unknown role", []string{"-role", "replica"}, "unknown -role"},
		{"empty stream buffer", []string{"-stream-buffer", "0"}, "-stream-buffer must be at least 1"},
		{"negative stream buffer", []string{"-stream-buffer", "-1"}, "-stream-buffer must be at least 1"},
	}
	for _, tc := range cases {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s: expected non-zero exit, got err=%v\n%s", tc.name, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.want, out)
		}
	}
}

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestDaemonServesQueries boots the real binary on a tiny generated
// dataset and runs one query over HTTP — the smallest end-to-end proof
// that the daemon starts, listens, and answers.
func TestDaemonServesQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon boot")
	}
	bin := buildAiqld(t)
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	cmd := exec.Command(bin, "-generate", "-hosts", "10", "-days", "3", "-events", "50", "-addr", addr)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready; stderr:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Post(base+"/query", "text/plain",
		strings.NewReader("proc p read file f return distinct p top 3"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %s", resp.Status)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), `"columns"`) {
		t.Errorf("query response is not a result document:\n%s", buf[:n])
	}
}

// startDaemon boots the binary with args, waits for /readyz (the boot gate
// answers /healthz 200 the moment the listener opens, but the query routes
// only come up when recovery finishes), and returns the base URL plus the
// running command (so the caller can SIGKILL it).
func startDaemon(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready; stderr:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func queryBody(t *testing.T, base, q string) string {
	t.Helper()
	resp, err := http.Post(base+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %s: %s", resp.Status, body)
	}
	return string(body)
}

// getStats fetches the daemon's /stats: its metrics registry as one flat
// JSON object keyed by exposition sample key.
func getStats(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRecoverySIGKILL is the restart-recovery acceptance test: a durable
// daemon is seeded, fed an extra batch over /ingest, killed with SIGKILL
// (no shutdown hook runs), and restarted on the same directory. The
// restarted process must answer the probe queries byte-identically —
// including rows contributed by the post-boot ingest — and report WAL and
// segment counters in /stats.
func TestRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SIGKILL recovery")
	}
	bin := buildAiqld(t)
	dir := t.TempDir()
	args := []string{
		"-data-dir", dir, "-wal-sync", "batch",
		"-generate", "-hosts", "10", "-days", "3", "-events", "100",
	}
	base, cmd := startDaemon(t, bin, args...)

	// Probe queries: a scan with rows and an aggregate; both must survive.
	// Their results are captured after the extra ingest below, so the
	// comparison covers seeded and post-boot data alike.
	probes := []string{
		"proc p read file f return distinct p sort by p",
		"agentid = 1\nproc p write file f as evt return p, count(evt) group by p sort by p",
	}
	before := make([]string, len(probes))

	// Feed an extra batch through /ingest so recovery must replay the WAL,
	// not just reload the seeded segments: one distinctive read event.
	extra := `{"kind":"entity","id":990001,"type":"proc","agentid":1,"attrs":{"exe_name":"/usr/bin/recovered_proc","pid":"4242"}}
{"kind":"entity","id":990002,"type":"file","agentid":1,"attrs":{"name":"/tmp/recovered_file"}}
{"kind":"event","id":990003,"agentid":1,"subject":990001,"object":990002,"op":"read","start":1488412800000,"seq":990003}
`
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(extra))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}
	marker := "proc p[\"/usr/bin/recovered_proc\"] read file f return p, f"
	markerBefore := queryBody(t, base, marker)
	if !strings.Contains(markerBefore, "recovered_file") {
		t.Fatalf("marker query found nothing before the kill: %s", markerBefore)
	}
	for i, q := range probes {
		before[i] = queryBody(t, base, q)
	}

	// kill -9: no shutdown path, no final sync, no WAL truncation.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Restart with the identical command line on the same directory.
	base2, _ := startDaemon(t, bin, args...)
	for i, q := range probes {
		after := queryBody(t, base2, q)
		if normalizeResult(after) != normalizeResult(before[i]) {
			t.Errorf("probe %d diverged after recovery:\nbefore: %s\nafter:  %s", i, before[i], after)
		}
	}
	if got := queryBody(t, base2, marker); normalizeResult(got) != normalizeResult(markerBefore) {
		t.Errorf("post-boot ingest lost by recovery:\nbefore: %s\nafter:  %s", markerBefore, got)
	}

	// /stats must expose the durability counters.
	stats := getStats(t, base2)
	for _, key := range []string{"aiql_wal_records_count", "aiql_segments_count", "aiql_wal_replayed_count", "aiql_live_cursors_count"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %s after recovery: %v", key, stats)
		}
	}
}

// TestGracefulShutdownSIGTERM is the shutdown-path regression test: a
// durable daemon whose group-commit flusher would not fire for an hour is
// fed a batch and sent SIGTERM. The shutdown path must flush the WAL
// buffer and close the store before exit — asserted by exit code 0, the
// explicit close message, and a restart that still answers the marker
// query (the restart also proves the directory lock was released).
func TestGracefulShutdownSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SIGTERM shutdown")
	}
	bin := buildAiqld(t)
	dir := t.TempDir()
	args := []string{
		"-data-dir", dir,
		// Group commit that never fires on its own: only the shutdown
		// close path can sync the batch below within the test's lifetime.
		"-wal-sync", "interval", "-wal-flush", "1h", "-compact-interval", "1h",
	}
	base, cmd := startDaemon(t, bin, args...)

	extra := `{"kind":"entity","id":880001,"type":"proc","agentid":1,"attrs":{"exe_name":"/usr/bin/shutdown_proc","pid":"4243"}}
{"kind":"entity","id":880002,"type":"file","agentid":1,"attrs":{"name":"/tmp/shutdown_file"}}
{"kind":"event","id":880003,"agentid":1,"subject":880001,"object":880002,"op":"write","start":1488412800000,"seq":880003}
`
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(extra))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	stderr := cmd.Stderr.(*strings.Builder).String()
	if !strings.Contains(stderr, "shutting down") {
		t.Errorf("stderr missing shutdown notice:\n%s", stderr)
	}
	if !strings.Contains(stderr, "durable store closed") {
		t.Errorf("stderr missing the store close confirmation:\n%s", stderr)
	}

	// Restart on the same directory: the batch acknowledged before SIGTERM
	// must be there, and the lock must have been released.
	base2, _ := startDaemon(t, bin, args...)
	got := queryBody(t, base2, `proc p["/usr/bin/shutdown_proc"] write file f return p, f`)
	if !strings.Contains(got, "shutdown_file") {
		t.Errorf("batch lost across graceful shutdown: %s", got)
	}
}

// TestPprofListener verifies the -pprof flag serves the profiling
// endpoints on its own listener and — just as important — that the query
// listener does NOT expose /debug/pprof/, so enabling profiling never
// widens the public surface.
func TestPprofListener(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon boot")
	}
	bin := buildAiqld(t)
	pprofAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	base, _ := startDaemon(t, bin,
		"-generate", "-hosts", "10", "-days", "3", "-events", "50",
		"-pprof", pprofAddr)

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index returned %s:\n%s", resp.Status, body)
	}

	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/heap")
	if err != nil {
		t.Fatalf("pprof heap: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof heap profile returned %s", resp.Status)
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("query-listener probe: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("query listener serves /debug/pprof/ — profiling leaked onto the service port")
	}
}

// normalizeResult strips the fields that legitimately differ across
// processes — timing and cache temperature — so the comparison pins
// exactly the result set.
func normalizeResult(body string) string {
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return body
	}
	delete(doc, "elapsed_ms")
	delete(doc, "plan_cached")
	delete(doc, "result_cached")
	delete(doc, "trace_id")
	out, err := json.Marshal(doc)
	if err != nil {
		return body
	}
	return string(out)
}

// TestSplitWorkers covers the -workers parsing rules: shard order is
// positional, so empty entries (stray commas) and duplicate URLs are
// configuration mistakes that must be rejected, not silently skipped.
func TestSplitWorkers(t *testing.T) {
	got, err := splitWorkers("http://a:1, http://b:2 ,http://c:3")
	if err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if len(got) != 3 || got[0] != "http://a:1" || got[1] != "http://b:2" || got[2] != "http://c:3" {
		t.Fatalf("parsed %v", got)
	}
	if got, err := splitWorkers(""); err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}

	bad := []struct {
		in   string
		want string
	}{
		{"http://a:1,,http://b:2", "empty worker URL"},
		{"http://a:1,http://b:2,", "empty worker URL"},
		{",http://a:1", "empty worker URL"},
		{"http://a:1,http://a:1", "duplicate worker URL"},
		{"http://a:1,http://a:1/", "duplicate worker URL"}, // trailing slash is the same worker
	}
	for _, tc := range bad {
		if _, err := splitWorkers(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("splitWorkers(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}

// TestWorkersFlagErrorsExitNonZero drives the same rejections through the
// real binary: a coordinator booted with a malformed -workers list must
// die with the parse error, never start serving with misnumbered shards.
func TestWorkersFlagErrorsExitNonZero(t *testing.T) {
	bin := buildAiqld(t)
	cases := []struct {
		name    string
		workers string
		want    string
	}{
		{"stray comma", "http://127.0.0.1:1,,http://127.0.0.1:2", "empty worker URL"},
		{"trailing comma", "http://127.0.0.1:1,http://127.0.0.1:2,", "empty worker URL"},
		{"duplicate URL", "http://127.0.0.1:1,http://127.0.0.1:1", "duplicate worker URL"},
	}
	for _, tc := range cases {
		out, err := exec.Command(bin, "-role", "coordinator", "-workers", tc.workers).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s: expected non-zero exit, got err=%v\n%s", tc.name, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.want, out)
		}
	}
}

// TestReadyzGatesBoot pins the boot-gate contract: while the daemon is
// still replaying catch-up history, /healthz answers 200 (the process is
// alive) but /readyz answers 503 naming the stage, and /query is refused —
// no request can observe the half-caught-up store. Once the peer's ship
// stream completes, /readyz flips to 200 and queries serve. The catch-up
// peer is a stub whose /walship response is held open until the test has
// observed the unready state, so the window is deterministic, not a race.
func TestReadyzGatesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon boot")
	}
	bin := buildAiqld(t)

	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/walship") {
			http.NotFound(w, r)
			return
		}
		<-release // hold the stream until the test saw /readyz 503
		_ = cluster.WriteShip(w, func(func([]byte) error) ([]storage.ReplShardState, error) { return nil, nil })
	}))
	defer peer.Close()

	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	cmd := exec.Command(bin,
		"-addr", addr, "-role", "worker", "-shard", "0",
		"-data-dir", t.TempDir(), "-catchup-from", peer.URL)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	base := "http://" + addr

	// Wait for the listener (healthz 200 from the gate), then assert the
	// unready state while catch-up is provably still in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener never opened; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during catch-up returned %s, want 503: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), "catch-up") {
		t.Errorf("/readyz 503 body does not name the boot stage: %s", body)
	}
	resp, err = http.Post(base+"/query", "text/plain", strings.NewReader("proc p read file f return p, f"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/query during catch-up returned %s, want 503", resp.Status)
	}

	// Let catch-up finish; the daemon must become ready and serve queries.
	close(release)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready after catch-up; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := queryBody(t, base, "proc p read file f return p, f"); !strings.Contains(got, `"columns"`) {
		t.Errorf("post-ready query is not a result document: %s", got)
	}
}

// TestFailoverSIGKILL is the process-level failover smoke test: a 3-worker
// replicated cluster is seeded through the coordinator, one worker is
// killed with SIGKILL, and the same query must still succeed with the
// identical answer — counter-proven by the coordinator's failovers stat.
func TestFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping cluster boot")
	}
	bin := buildAiqld(t)

	urls := make([]string, 3)
	cmds := make([]*exec.Cmd, 3)
	for i := range urls {
		urls[i], cmds[i] = startDaemon(t, bin, "-role", "worker", "-shard", fmt.Sprint(i))
	}
	coord, _ := startDaemon(t, bin,
		"-role", "coordinator", "-workers", strings.Join(urls, ","),
		"-replicas", "2",
		"-generate", "-hosts", "10", "-days", "3", "-events", "50")

	const probe = "proc p read file f return distinct p sort by p"
	before := queryBody(t, coord, probe)
	if !strings.Contains(before, `"rows"`) {
		t.Fatalf("baseline query returned no result document: %s", before)
	}

	// kill -9 one worker: every shard it served has a live replica.
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmds[2].Wait()

	after := queryBody(t, coord, probe)
	if normalizeResult(after) != normalizeResult(before) {
		t.Errorf("answer changed after worker death:\nbefore: %s\nafter:  %s", before, after)
	}

	// The success must have come through the failover path, not luck.
	stats := getStats(t, coord)
	if got := stats["aiql_cluster_replicas_count"]; got != 2 {
		t.Errorf("coordinator reports %v replicas, want 2", got)
	}
	if stats["aiql_cluster_failovers_total"] == 0 {
		t.Error("failovers counter is zero; the post-kill query did not use the replica")
	}
}
