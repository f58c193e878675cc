package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/obs"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/types"
)

// scrapeMetrics fetches and strictly parses the server's /metrics payload.
func scrapeMetrics(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q, want text/plain; version=0.0.4", ct)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v", err)
	}
	return exp
}

// mustValue returns the named series' value, failing the test if absent.
func mustValue(t *testing.T, exp *obs.Exposition, name string, kv ...string) float64 {
	t.Helper()
	v, ok := exp.Value(name, kv...)
	if !ok {
		t.Fatalf("series %s%v missing from /metrics", name, kv)
	}
	return v
}

// TestMetricsScrape exercises the exposition end to end on a live server:
// the payload parses strictly, the query counters and latency histogram
// move with traffic, and the per-route request counter labels the routes
// the middleware saw.
func TestMetricsScrape(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})

	postQuery(t, ts, keyReadQuery)
	// Distinct query text so the second request misses the result cache.
	postQuery(t, ts, "agentid = 1\nproc p read file f as evt\nreturn p")

	exp := scrapeMetrics(t, ts.URL)
	if got := mustValue(t, exp, "aiql_queries_total"); got != 2 {
		t.Errorf("aiql_queries_total = %v, want 2", got)
	}
	if got := mustValue(t, exp, "aiql_query_duration_seconds_count"); got != 2 {
		t.Errorf("aiql_query_duration_seconds_count = %v, want 2", got)
	}
	if typ := exp.Types["aiql_query_duration_seconds"]; typ != "histogram" {
		t.Errorf("aiql_query_duration_seconds TYPE = %q, want histogram", typ)
	}
	if got := mustValue(t, exp, "aiql_http_requests_total", "route", "POST /query", "code", "200"); got != 2 {
		t.Errorf(`aiql_http_requests_total{route="POST /query",code="200"} = %v, want 2`, got)
	}
	if got := mustValue(t, exp, "aiql_store_events_count"); got != 3 {
		t.Errorf("aiql_store_events_count = %v, want 3", got)
	}
	if got := mustValue(t, exp, "aiql_live_snapshots_count"); got != 0 {
		t.Errorf("aiql_live_snapshots_count = %v at rest, want 0", got)
	}
	// A second scrape must also parse: scraping is read-only and repeatable.
	scrapeMetrics(t, ts.URL)
}

// TestMetricsBlockCounterInvariant pins the zone-map pruning invariant on
// the exposed counters: after queries over a sealed (compacted) store,
// every considered block was either skipped by a zone map or decoded —
// blocks_decoded + blocks_skipped == blocks_considered.
func TestMetricsBlockCounterInvariant(t *testing.T) {
	day := gen.DayStart(1)
	b := gen.NewBuilder(7)
	bash := b.Proc(testHost, "/bin/bash")
	curl := b.ProcInstance(testHost, "/usr/bin/curl")
	secret := b.File(testHost, "/home/alice/.ssh/id_rsa")
	for i := 0; i < 500; i++ {
		tmp := b.File(testHost, "/tmp/scratch-"+string(rune('a'+i%26)))
		b.Emit(testHost, bash, tmp, types.OpWrite, day+int64(1000+i), 128)
	}
	b.Emit(testHost, curl, secret, types.OpRead, day+900000, 4096)

	// Ingest and compact in a first incarnation, then reopen: a reopened
	// store installs its segments as cold partitions, so queries reach the
	// block-level scan path the counters instrument.
	dir := t.TempDir()
	p0, err := storage.OpenPersistent(dir, storage.PersistOptions{
		FlushInterval:   -1,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p0.Ingest(b.Dataset()); err != nil {
		t.Fatal(err)
	}
	if err := p0.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := p0.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := storage.OpenPersistent(dir, storage.PersistOptions{
		FlushInterval:   -1,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	srv, err := server.NewPersistent(p, engine.New(p.Store, engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	postQuery(t, ts, keyReadQuery)

	exp := scrapeMetrics(t, ts.URL)
	considered := mustValue(t, exp, "aiql_scan_blocks_considered_total")
	skipped := mustValue(t, exp, "aiql_scan_blocks_skipped_total")
	decoded := mustValue(t, exp, "aiql_scan_blocks_decoded_total")
	if considered == 0 {
		t.Fatal("aiql_scan_blocks_considered_total = 0 after a query over a compacted store")
	}
	if decoded+skipped != considered {
		t.Errorf("block counters violate the pruning invariant: decoded %v + skipped %v != considered %v",
			decoded, skipped, considered)
	}
	// What happened inside the decoded blocks is counted beside the
	// invariant, never inside it.
	filtered := mustValue(t, exp, "aiql_scan_blocks_filtered_total")
	columns := mustValue(t, exp, "aiql_scan_value_columns_decoded_total")
	if filtered > decoded || columns > 6*(decoded-filtered) {
		t.Errorf("decoded %v blocks, yet %v filtered and %v value columns inflated", decoded, filtered, columns)
	}
	segs := mustValue(t, exp, "aiql_segments_count")
	if segs == 0 {
		t.Error("aiql_segments_count = 0 after Compact")
	}
	// One on-disk format: every segment is a v3 segment.
	if v3 := mustValue(t, exp, "aiql_segments_v3_count"); v3 != segs {
		t.Errorf("aiql_segments_v3_count = %v, aiql_segments_count = %v; want equal", v3, segs)
	}
}

// TestMetricsUnderStreamLoad is the soak-scrape check CI runs alongside the
// stream soak: with a standing rule, a live subscriber, and batches landing,
// /metrics keeps parsing strictly on every mid-run scrape and the streaming
// counters move monotonically.
func TestMetricsUnderStreamLoad(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	info := registerRule(t, ts, stream.RuleSpec{Query: `proc p read file f["%id_rsa"] return p, f`})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/subscribe/"+info.ID, nil)
	sub, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()

	const batches = 20
	var lastEmitted float64
	for i := 0; i < batches; i++ {
		id := 800000 + i*10
		lines := fmt.Sprintf(`{"kind":"entity","id":%d,"type":"proc","agentid":1,"attrs":{"exe_name":"/usr/bin/exfil","pid":"%d"}}
{"kind":"entity","id":%d,"type":"file","agentid":1,"attrs":{"name":"/home/alice/.ssh/id_rsa"}}
{"kind":"event","id":%d,"agentid":1,"subject":%d,"object":%d,"op":"read","start":%d,"seq":%d}
`, id, i, id+1, id+2, id, id+1, 1488412800000+int64(i), id+2)
		ingestLines(t, ts, lines)

		// Scrape mid-run every few batches: the payload must stay strictly
		// parseable and the emission counter must never move backwards.
		if i%5 != 4 {
			continue
		}
		exp := scrapeMetrics(t, ts.URL)
		if got := mustValue(t, exp, "aiql_stream_rules_count"); got != 1 {
			t.Fatalf("aiql_stream_rules_count = %v mid-run, want 1", got)
		}
		if got := mustValue(t, exp, "aiql_subscribers_count"); got != 1 {
			t.Fatalf("aiql_subscribers_count = %v mid-run, want 1", got)
		}
		emitted := mustValue(t, exp, "aiql_stream_emitted_total")
		if emitted < lastEmitted {
			t.Fatalf("aiql_stream_emitted_total went backwards: %v -> %v", lastEmitted, emitted)
		}
		lastEmitted = emitted
	}

	// Emission is asynchronous; wait for the final count to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		exp := scrapeMetrics(t, ts.URL)
		if v := mustValue(t, exp, "aiql_stream_emitted_total"); v == batches {
			if got := mustValue(t, exp, "aiql_ingest_batches_total"); got != batches {
				t.Errorf("aiql_ingest_batches_total = %v, want %d", got, batches)
			}
			if got := mustValue(t, exp, "aiql_ingest_duration_seconds_count"); got != batches {
				t.Errorf("aiql_ingest_duration_seconds_count = %v, want %d", got, batches)
			}
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("aiql_stream_emitted_total = %v, want %d", v, batches)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A deleted rule keeps its share of the join-state counters: a join
	// rule with a one-second window sees a straggler a minute behind its
	// watermark expire on arrival, and deleting the rule must not take the
	// eviction back out of aiql_stream_state_evicted_total.
	join := registerRule(t, ts, stream.RuleSpec{
		Query:    "proc p1 write file f as evt1\nproc p2 read file f as evt2\nwith evt1 before evt2\nreturn p1, p2, f",
		WindowMs: 1000,
	})
	ingestLines(t, ts, `{"kind":"entity","id":900001,"type":"proc","agentid":1,"attrs":{"exe_name":"/usr/bin/dropper","pid":"9"}}
{"kind":"entity","id":900002,"type":"file","agentid":1,"attrs":{"name":"/tmp/payload"}}
{"kind":"event","id":900003,"agentid":1,"subject":900001,"object":900002,"op":"write","start":1488412860000,"seq":900003}
`)
	ingestLines(t, ts, `{"kind":"event","id":900004,"agentid":1,"subject":900001,"object":900002,"op":"write","start":1488412800000,"seq":900004}
`)
	evicted := mustValue(t, scrapeMetrics(t, ts.URL), "aiql_stream_state_evicted_total")
	if evicted == 0 {
		t.Fatal("aiql_stream_state_evicted_total = 0 after a straggler outside the join window")
	}
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rules/"+join.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /rules/%s returned %d", join.ID, dresp.StatusCode)
	}
	if got := mustValue(t, scrapeMetrics(t, ts.URL), "aiql_stream_state_evicted_total"); got < evicted {
		t.Fatalf("aiql_stream_state_evicted_total went backwards on rule delete: %v -> %v", evicted, got)
	}
}

// TestStatsRendersMetricsRegistry pins /stats as a rendering of the /metrics
// registry on every server role: at quiescence the two carry the same
// sample keys with equal values. Only the series that tick between the two
// requests are left out: uptime, and the request counter the /stats request
// itself bumps.
func TestStatsRendersMetricsRegistry(t *testing.T) {
	ticking := func(key string) bool {
		return key == "aiql_uptime_seconds" || strings.HasPrefix(key, "aiql_http_requests_total")
	}
	roles := map[string]*httptest.Server{}
	roles["single"], _ = newTestServer(t, server.Options{})

	p, err := storage.OpenPersistent(t.TempDir(), storage.PersistOptions{
		SyncEveryBatch:  true,
		FlushInterval:   -1,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	durable, err := server.NewPersistent(p, engine.New(p.Store, engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(durable.Handler())
	t.Cleanup(dts.Close)
	ingestLines(t, dts, markerBatch)
	roles["durable"] = dts

	workers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range workers {
		st := storage.New(storage.Options{})
		ws := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		ws.SetShard(i)
		workers[i] = httptest.NewServer(ws.Handler())
		t.Cleanup(workers[i].Close)
		urls[i] = workers[i].URL
	}
	coord, err := cluster.New(urls, cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(server.NewCoordinator(coord, engine.New(coord, engine.Options{}), server.Options{}).Handler())
	t.Cleanup(cts.Close)
	// Through the coordinator, so the workers carry replication watermarks
	// (the one labeled gauge family) and the coordinator its ingest counters.
	ingestLines(t, cts, markerBatch)
	roles["coordinator"] = cts
	roles["worker"] = workers[0]

	for role, ts := range roles {
		postQuery(t, ts, keyReadQuery)
		stats := getStats(t, ts)
		exp := scrapeMetrics(t, ts.URL)
		metrics := map[string]float64{}
		for _, s := range exp.Samples {
			if k := s.Key(); !ticking(k) {
				metrics[k] = s.Value
			}
		}
		watermarks := 0
		for k := range stats {
			if ticking(k) {
				delete(stats, k)
			}
			if strings.HasPrefix(k, "aiql_repl_watermark_count{") {
				watermarks++
			}
		}
		if len(stats) != len(metrics) {
			t.Errorf("%s: /stats has %d keys, /metrics %d samples", role, len(stats), len(metrics))
		}
		for k, v := range metrics {
			if sv, ok := stats[k]; !ok {
				t.Errorf("%s: /metrics sample %s missing from /stats", role, k)
			} else if sv != v {
				t.Errorf("%s: %s = %v in /stats, %v in /metrics", role, k, sv, v)
			}
		}
		if role == "worker" && watermarks == 0 {
			t.Errorf("worker /stats has no labeled replication watermark")
		}
	}
}

// TestMetricsFailoverScrape is the failover-scrape check CI runs alongside
// the failover smoke: on an R=2 cluster with a dead worker, the query still
// answers, and the coordinator's /metrics shows the failover — parsed
// strictly, with the failover and worker-failure counters moved.
func TestMetricsFailoverScrape(t *testing.T) {
	b := gen.NewBuilder(13)
	bash := b.Proc(testHost, "/bin/bash")
	curl := b.ProcInstance(testHost, "/usr/bin/curl")
	secret := b.File(testHost, "/home/alice/.ssh/id_rsa")
	// Data on several (agent, day) partitions so the semantics-aware
	// placement homes shards on both workers; a full-window query then has
	// legs on the dead worker and must fail over.
	for d := 1; d <= 4; d++ {
		day := gen.DayStart(d)
		for i := 0; i < 10; i++ {
			tmp := b.File(testHost, "/tmp/g")
			b.Emit(testHost, bash, tmp, types.OpWrite, day+int64(1000+i), 64)
		}
		b.Emit(testHost, curl, secret, types.OpRead, day+60000, 4096)
	}

	workers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range workers {
		st := storage.New(storage.Options{})
		ws := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		ws.SetShard(i)
		workers[i] = httptest.NewServer(ws.Handler())
		urls[i] = workers[i].URL
	}
	t.Cleanup(workers[0].Close)
	coord, err := cluster.New(urls, cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ingest(context.Background(), b.Dataset()); err != nil {
		t.Fatal(err)
	}
	cs := server.NewCoordinator(coord, engine.New(coord, engine.Options{}), server.Options{})
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)

	workers[1].Close() // the worker dies; its shard's replica lives on worker 0

	resp := postQuery(t, ts, keyReadQuery)
	if resp.RowCount == 0 {
		t.Fatal("failover query returned no rows")
	}

	exp := scrapeMetrics(t, ts.URL)
	if got := mustValue(t, exp, "aiql_cluster_workers_count"); got != 2 {
		t.Errorf("aiql_cluster_workers_count = %v, want 2", got)
	}
	if got := mustValue(t, exp, "aiql_cluster_replicas_count"); got != 2 {
		t.Errorf("aiql_cluster_replicas_count = %v, want 2", got)
	}
	if got := mustValue(t, exp, "aiql_cluster_failovers_total"); got == 0 {
		t.Error("aiql_cluster_failovers_total = 0 after a query with a dead worker")
	}
	if got := mustValue(t, exp, "aiql_cluster_worker_requests_total"); got == 0 {
		t.Error("aiql_cluster_worker_requests_total = 0 after a scattered query")
	}

	// The surviving worker's own exposition stays scrapeable and shows the
	// scans it served for both shards.
	wexp := scrapeMetrics(t, workers[0].URL)
	if got := mustValue(t, wexp, "aiql_scans_served_total"); got == 0 {
		t.Error("surviving worker served no scans")
	}
}

// findSpans walks a span tree depth-first collecting spans with the name.
func findSpans(spans []*obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
		out = append(out, findSpans(s.Children, name)...)
	}
	return out
}

// TestCoordinatorTraceSpanTree is the tracing acceptance scenario: a query
// against a 3-worker coordinator, asked for its trace, returns a span tree
// that attributes time per stage — plan, execute, scan, gather — and per
// worker leg, all under the client-chosen trace ID; and the same ID shows
// up in each worker's slow-query log, tying the coordinator's legs to the
// workers' server-side records.
func TestCoordinatorTraceSpanTree(t *testing.T) {
	day := gen.DayStart(1)
	b := gen.NewBuilder(11)
	bash := b.Proc(testHost, "/bin/bash")
	curl := b.ProcInstance(testHost, "/usr/bin/curl")
	secret := b.File(testHost, "/home/alice/.ssh/id_rsa")
	for i := 0; i < 30; i++ {
		tmp := b.File(testHost, "/tmp/f")
		b.Emit(testHost, bash, tmp, types.OpWrite, day+int64(1000+i), 64)
	}
	b.Emit(testHost, curl, secret, types.OpRead, day+50000, 4096)

	workers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range workers {
		st := storage.New(storage.Options{})
		ws := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		ws.SetShard(i)
		workers[i] = httptest.NewServer(ws.Handler())
		t.Cleanup(workers[i].Close)
		urls[i] = workers[i].URL
	}
	// ArrivalOrder placement: every worker holds a slice of the data and
	// every query fans out to all three, so the trace shows three legs.
	coord, err := cluster.New(urls, cluster.Options{Placement: mpp.ArrivalOrder})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ingest(context.Background(), b.Dataset()); err != nil {
		t.Fatal(err)
	}
	cs := server.NewCoordinator(coord, engine.New(coord, engine.Options{}), server.Options{})
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)

	const traceID = "investigation-42"
	body, _ := json.Marshal(map[string]any{"query": keyReadQuery, "trace": true})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceIDHeader); got != traceID {
		t.Errorf("response %s = %q, want %q (client ID must be echoed)", obs.TraceIDHeader, got, traceID)
	}
	var out server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RowCount != 1 {
		t.Fatalf("query returned %d rows, want 1", out.RowCount)
	}
	if out.TraceID != traceID {
		t.Errorf("trace_id = %q, want %q", out.TraceID, traceID)
	}
	if out.Trace == nil {
		t.Fatal(`response has no "trace" block despite "trace": true`)
	}
	if out.Trace.ID != traceID {
		t.Errorf("trace block ID = %q, want %q", out.Trace.ID, traceID)
	}

	if n := len(findSpans(out.Trace.Spans, "plan")); n != 1 {
		t.Errorf("trace has %d plan spans, want 1", n)
	}
	execs := findSpans(out.Trace.Spans, "execute")
	if len(execs) != 1 {
		t.Fatalf("trace has %d execute spans, want 1", len(execs))
	}
	scans := findSpans(execs[0].Children, "scan")
	if len(scans) == 0 {
		t.Fatal("execute span has no scan children")
	}
	gathers := findSpans(scans[0].Children, "gather")
	if len(gathers) != 1 {
		t.Fatalf("scan span has %d gather children, want 1", len(gathers))
	}
	legs := findSpans(gathers[0].Children, "worker")
	if len(legs) != 3 {
		t.Fatalf("gather span has %d worker legs, want 3 (one per worker)", len(legs))
	}
	shards := map[string]bool{}
	for _, leg := range legs {
		if leg.Attrs["worker"] == "" {
			t.Errorf("worker leg missing its worker attribute: %+v", leg.Attrs)
		}
		shards[leg.Attrs["shard"]] = true
	}
	if len(shards) != 3 {
		t.Errorf("worker legs cover shards %v, want 3 distinct", shards)
	}

	// Cross-process correlation: each worker served its /scan leg under the
	// coordinator's trace ID and recorded it in its own slow log. The
	// worker's record lands just after its response body closes, so poll.
	for i, w := range workers {
		if !workerSlowLogHas(t, w.URL, traceID) {
			t.Errorf("worker %d slow log has no entry for trace %q", i, traceID)
		}
	}

	// The untraced path stays lean: no trace block unless asked.
	plain := postQuery(t, ts, keyReadQuery)
	if plain.Trace != nil {
		t.Error("untraced query response carries a trace block")
	}
	if plain.TraceID == "" {
		t.Error("untraced query response missing its trace_id")
	}
}

// workerSlowLogHas polls the worker's /debug/slow for an entry with the
// trace ID, allowing for the record landing moments after the scan
// response closes.
func workerSlowLogHas(t *testing.T, url, traceID string) bool {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/slow")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Slowest []*obs.SlowEntry `json:"slowest"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out.Slowest {
			if e.TraceID == traceID {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugQueriesAndSlowLog checks the inspection plane on a local
// server: a finished query appears in /debug/slow with its span tree, and
// /debug/queries serves the (empty) in-flight registry.
func TestDebugQueriesAndSlowLog(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	postQuery(t, ts, keyReadQuery)

	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow struct {
		Count   int              `json:"count"`
		Slowest []*obs.SlowEntry `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if slow.Count != 1 || len(slow.Slowest) != 1 {
		t.Fatalf("slow log holds %d entries, want 1", slow.Count)
	}
	e := slow.Slowest[0]
	if e.TraceID == "" {
		t.Error("slow entry missing trace ID")
	}
	if e.Rows != 1 {
		t.Errorf("slow entry rows = %d, want 1", e.Rows)
	}
	if e.Trace == nil || len(e.Trace.Spans) == 0 {
		t.Error("slow entry missing its span tree")
	}

	resp2, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var inflight struct {
		Count   int               `json:"count"`
		Queries []json.RawMessage `json:"queries"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&inflight); err != nil {
		t.Fatal(err)
	}
	if inflight.Count != 0 {
		t.Errorf("in-flight registry reports %d queries at rest, want 0", inflight.Count)
	}
}

// TestErrorBodiesCarryTraceID: every error body names the request's trace,
// the same ID the X-Aiql-Trace response header carries — a malformed
// /ingest body or replication header, a bad /rules spec and a bad /scan body
// alike.
func TestErrorBodiesCarryTraceID(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	for _, tc := range []struct {
		name, path, body string
		header           map[string]string
	}{
		{"malformed ingest", "/ingest", "{not json", nil},
		{"malformed replication headers", "/ingest", "", map[string]string{"X-Aiql-Repl-Epoch": "e1", "X-Aiql-Repl-Seq": "x"}},
		{"bad rule spec", "/rules", `{"id": "r", "query": "proc p ((("}`, nil},
		{"bad scan body", "/scan", "{", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Error   string `json:"error"`
				TraceID string `json:"trace_id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || body.Error == "" {
				t.Fatalf("status %d error %q, want 400 with an error", resp.StatusCode, body.Error)
			}
			if want := resp.Header.Get(obs.TraceIDHeader); body.TraceID == "" || body.TraceID != want {
				t.Fatalf("error body trace_id %q, response header %q", body.TraceID, want)
			}
		})
	}
}
