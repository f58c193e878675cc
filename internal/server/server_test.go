package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/types"
)

const testHost = 1

// newTestServer builds a small single-host dataset (one ssh-key read) and
// serves it; the returned store allows direct generation checks.
func newTestServer(t *testing.T, opts server.Options) (*httptest.Server, *storage.Store) {
	t.Helper()
	day := gen.DayStart(1)
	b := gen.NewBuilder(42)
	bash := b.Proc(testHost, "/bin/bash")
	curl := b.ProcInstance(testHost, "/usr/bin/curl")
	secret := b.File(testHost, "/home/alice/.ssh/id_rsa")
	c2 := b.Conn(testHost, "203.0.113.9", 443)
	b.Emit(testHost, bash, curl, types.OpStart, day+1000, 0)
	b.Emit(testHost, curl, secret, types.OpRead, day+2000, 4096)
	b.Emit(testHost, curl, c2, types.OpWrite, day+3000, 4096)

	st := storage.New(storage.Options{})
	st.Ingest(b.Dataset())
	srv := server.New(st, engine.New(st, engine.Options{}), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

const keyReadQuery = `
	agentid = 1
	proc p read file f["%id_rsa"] as evt
	return p, f`

func postQuery(t *testing.T, ts *httptest.Server, src string) *server.QueryResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query returned %d: %s", resp.StatusCode, body)
	}
	var out server.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad /query response %q: %v", body, err)
	}
	return &out
}

// getStats fetches /stats: the metrics registry as a flat JSON object keyed
// by exposition sample key.
func getStats(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats returned %d", resp.StatusCode)
	}
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustStat returns one /stats value, failing the test if the key is absent.
func mustStat(t *testing.T, stats map[string]float64, key string) float64 {
	t.Helper()
	v, ok := stats[key]
	if !ok {
		t.Fatalf("/stats has no %s", key)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz returned %d", resp.StatusCode)
	}
}

func TestQueryJSONAndTextBodies(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})

	r1 := postQuery(t, ts, keyReadQuery)
	if r1.RowCount != 1 {
		t.Fatalf("text query: got %d rows, want 1", r1.RowCount)
	}

	reqBody, _ := json.Marshal(map[string]string{"query": keyReadQuery})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r2 server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&r2); err != nil {
		t.Fatal(err)
	}
	if r2.RowCount != 1 {
		t.Fatalf("json query: got %d rows, want 1", r2.RowCount)
	}
	if len(r2.Columns) != 2 || r2.Columns[0] != "p" {
		t.Fatalf("unexpected columns %v", r2.Columns)
	}
}

func TestQueryErrorsReturn400(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	for _, body := range []string{"", "this is not aiql"} {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: got status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestOversizedQueryBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	big := strings.Repeat("proc p read file f return p\n", 1<<20/28+2)
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got status %d, want 413", resp.StatusCode)
	}
}

// TestPlanCacheHitCounting verifies that a reformatted version of the same
// query hits the plan cache (the key is normalized source) and that /stats
// reports the hits.
func TestPlanCacheHitCounting(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{ResultCacheSize: -1})

	r := postQuery(t, ts, keyReadQuery)
	if r.PlanCached {
		t.Fatal("first execution reported a plan-cache hit")
	}
	reformatted := "agentid = 1\n\n\tproc   p read file f[\"%id_rsa\"]   as evt\n return p, f"
	r = postQuery(t, ts, reformatted)
	if !r.PlanCached {
		t.Fatal("reformatted repeat did not hit the plan cache")
	}

	st := getStats(t, ts)
	hits, misses := mustStat(t, st, "aiql_plan_cache_hits_total"), mustStat(t, st, "aiql_plan_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Fatalf("plan cache counters = %v hits / %v misses, want 1 / 1", hits, misses)
	}
	if got := mustStat(t, st, "aiql_queries_total"); got != 2 {
		t.Fatalf("aiql_queries_total = %v, want 2", got)
	}
}

// TestIngestInvalidatesResultCache drives the full cache lifecycle: miss,
// hit, ingest, miss again with the new events visible.
func TestIngestInvalidatesResultCache(t *testing.T) {
	ts, st := newTestServer(t, server.Options{})

	r := postQuery(t, ts, keyReadQuery)
	if r.ResultCached || r.RowCount != 1 {
		t.Fatalf("first query: cached=%v rows=%d, want fresh 1-row result", r.ResultCached, r.RowCount)
	}
	r = postQuery(t, ts, keyReadQuery)
	if !r.ResultCached {
		t.Fatal("repeat query did not hit the result cache")
	}

	// Ingest one more id_rsa read by a new process, wire-format lines as
	// aiqlgen would emit them. Entity 2000 avoids the builder's id range.
	day := gen.DayStart(1)
	batch := fmt.Sprintf(
		`{"kind":"entity","id":2000,"type":"proc","agentid":%d,"attrs":{"exe_name":"/usr/bin/scp","pid":"4242"}}
{"kind":"event","id":9000,"agentid":%d,"subject":2000,"object":3,"op":"read","start":%d,"end":%d,"seq":50}
`, testHost, testHost, day+5000, day+5001)
	gen0 := st.Generation()
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ing server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ing.Events != 1 || ing.Entities != 1 {
		t.Fatalf("/ingest returned %d %+v", resp.StatusCode, ing)
	}
	if ing.Generation == gen0 {
		t.Fatal("ingest did not bump the store generation")
	}

	r = postQuery(t, ts, keyReadQuery)
	if r.ResultCached {
		t.Fatal("query after ingest served a stale cached result")
	}
	if r.RowCount != 2 {
		t.Fatalf("query after ingest: got %d rows, want 2 (new event missing)", r.RowCount)
	}
}

// TestConcurrentQueries hammers /query from many goroutines mixing two
// distinct queries; every response must be correct and the cache counters
// must add up.
func TestConcurrentQueries(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})

	queries := []struct {
		src  string
		rows int
	}{
		{keyReadQuery, 1},
		{"agentid = 1\nproc p write ip i as evt\nreturn p, i.dst_ip", 1},
	}
	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q.src))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var out server.QueryResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					return
				}
				if out.RowCount != q.rows {
					errs <- fmt.Errorf("query %q: got %d rows, want %d", q.src, out.RowCount, q.rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := getStats(t, ts)
	if got := mustStat(t, st, "aiql_queries_total"); got != workers*perWorker {
		t.Fatalf("aiql_queries_total = %v, want %d", got, workers*perWorker)
	}
	hits := mustStat(t, st, "aiql_result_cache_hits_total")
	if total := hits + mustStat(t, st, "aiql_result_cache_misses_total"); total != workers*perWorker {
		t.Fatalf("result cache hits+misses = %v, want %d", total, workers*perWorker)
	}
	if hits == 0 {
		t.Fatal("no result-cache hits across 80 repeated queries")
	}
}

// TestDurableServerIngestSurvivesReopen exercises the persistent server
// mode end to end in-process: ingest over HTTP lands in the WAL, /stats
// exposes the durability counters, and a server reopened over the same
// directory (recovery before serving, as NewPersistent guarantees) answers
// the same query with the same rows.
func TestDurableServerIngestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *storage.Persistent) {
		t.Helper()
		p, err := storage.OpenPersistent(dir, storage.PersistOptions{
			SyncEveryBatch:  true,
			FlushInterval:   -1,
			CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewPersistent(p, engine.New(p.Store, engine.Options{}), server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts, p
	}

	ts, p := open()
	day := gen.DayStart(1)
	batch := fmt.Sprintf(`{"kind":"entity","id":1,"type":"proc","agentid":1,"attrs":{"exe_name":"/bin/bash"}}
{"kind":"entity","id":2,"type":"file","agentid":1,"attrs":{"name":"/home/alice/.ssh/id_rsa"}}
{"kind":"event","id":3,"agentid":1,"subject":1,"object":2,"op":"read","start":%d,"seq":1}
`, day+1000)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest returned %d", resp.StatusCode)
	}
	before := postQuery(t, ts, keyReadQuery)
	if len(before.Rows) != 1 {
		t.Fatalf("query before reopen returned %d rows, want 1", len(before.Rows))
	}

	// /stats carries the durability counters.
	if got := mustStat(t, getStats(t, ts), "aiql_wal_records_count"); got != 1 {
		t.Fatalf("WAL depth = %v records, want 1", got)
	}

	// "Crash": every batch was fsynced already, so Close adds nothing on
	// disk; it releases the directory lock the way a dead process would.
	ts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := open()
	after := postQuery(t, ts2, keyReadQuery)
	if len(after.Rows) != 1 || after.Rows[0][0] != before.Rows[0][0] {
		t.Fatalf("reopened server rows = %v, want %v", after.Rows, before.Rows)
	}
}
