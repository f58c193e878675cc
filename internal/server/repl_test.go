package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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
	"aiql/internal/timeutil"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// taggedBatch builds one self-contained NDJSON ingest batch: a process, a
// file, and one read event between them, all keyed off k so batches never
// collide.
func taggedBatch(k int) string {
	day := gen.DayStart(1)
	return fmt.Sprintf(`{"kind":"entity","id":%d,"type":"proc","agentid":1,"attrs":{"exe_name":"/bin/tool%d"}}
{"kind":"entity","id":%d,"type":"file","agentid":1,"attrs":{"name":"/data/f%d"}}
{"kind":"event","id":%d,"agentid":1,"subject":%d,"object":%d,"op":"read","start":%d,"seq":%d}
`, 100+k, k, 200+k, k, 300+k, 100+k, 200+k, day+int64(k)*1000, k)
}

// postTagged posts a batch as a coordinator does, one tagged batch in the
// WAL record layout, returning the decoded response.
func postTagged(t *testing.T, url string, shard int, seq uint64, batch string) *server.IngestResponse {
	t.Helper()
	ds, err := trace.Read(strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	payload := storage.EncodeBatch(&storage.ReplTag{Epoch: "e1", Shard: shard, Seq: seq}, ds.Entities, ds.Events)
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", cluster.BatchContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tagged /ingest returned %d: %s", resp.StatusCode, body)
	}
	var out server.IngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad ingest response %q: %v", body, err)
	}
	return &out
}

// TestTaggedIngestHTTPDedup drives the tagged /ingest path over HTTP: a
// re-posted tag (the coordinator's retry after a lost ack) reports
// duplicate and changes nothing, and /stats exposes the suppression.
func TestTaggedIngestHTTPDedup(t *testing.T) {
	st := storage.New(storage.Options{})
	srv := server.New(st, engine.New(st, engine.Options{}), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	first := postTagged(t, ts.URL, 0, 1, taggedBatch(1))
	if first.Duplicate || first.Events != 1 {
		t.Fatalf("first tagged ingest: %+v", first)
	}
	count := st.EventCount()

	again := postTagged(t, ts.URL, 0, 1, taggedBatch(1))
	if !again.Duplicate {
		t.Fatal("re-posted tag was not reported as a duplicate")
	}
	if st.EventCount() != count {
		t.Fatalf("duplicate ingest changed the store: %d events, want %d", st.EventCount(), count)
	}

	stats := getStats(t, ts)
	applied, dups := mustStat(t, stats, "aiql_repl_applied_total"), mustStat(t, stats, "aiql_repl_duplicates_total")
	if applied != 1 || dups != 1 {
		t.Fatalf("replication stats applied=%v duplicates=%v, want 1 and 1", applied, dups)
	}

	// Malformed headers are rejected, not silently treated as untagged.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", strings.NewReader(taggedBatch(2)))
	req.Header.Set("X-Aiql-Repl-Epoch", "e1")
	req.Header.Set("X-Aiql-Repl-Shard", "zero")
	req.Header.Set("X-Aiql-Repl-Seq", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed replication headers returned %d, want 400", resp.StatusCode)
	}
}

// durableServer opens a persistent store + server over dir. Closing is the
// caller's job — the crash-window test restarts it mid-test.
func durableServer(t *testing.T, dir string) (*httptest.Server, *storage.Persistent) {
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
	return httptest.NewServer(srv.Handler()), p
}

const replScanQuery = "agentid = 1\nproc p read file f as evt\nreturn p, f"

// TestCatchUpAcrossCrashWindow is the satellite-4 scenario: a replica that
// missed batches pulls them from its peer, the first transfer dies
// mid-stream, the replica restarts (recovering the partially-applied
// records from its own WAL), and the second transfer completes
// idempotently — ending with byte-identical answers on both copies.
func TestCatchUpAcrossCrashWindow(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	tsA, _ := durableServer(t, dirA)
	t.Cleanup(tsA.Close)
	tsB, pB := durableServer(t, dirB)

	// Dual-write era: batches 1-2 land on both copies; then the replica
	// goes dark and batches 3-4 land only on the primary.
	for k := 1; k <= 4; k++ {
		if r := postTagged(t, tsA.URL, 0, uint64(k), taggedBatch(k)); r.Duplicate {
			t.Fatalf("batch %d duplicate on primary", k)
		}
		if k <= 2 {
			if r := postTagged(t, tsB.URL, 0, uint64(k), taggedBatch(k)); r.Duplicate {
				t.Fatalf("batch %d duplicate on replica", k)
			}
		}
	}

	// A proxy of the primary's /walship that forwards the first three
	// frames (two the replica already has, ONE it is missing) and then
	// drops the connection — the peer dying mid-ship.
	cutProxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(tsA.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		for i := 0; i < 3; i++ {
			var h [5]byte
			if _, err := io.ReadFull(resp.Body, h[:]); err != nil {
				break
			}
			w.Write(h[:])
			io.CopyN(w, resp.Body, int64(binary.LittleEndian.Uint32(h[1:])))
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(cutProxy.Close)

	if _, err := server.CatchUp(context.Background(), pB, cutProxy.URL, []int{0}); err == nil {
		t.Fatal("catch-up through the cut proxy succeeded; the fault was not injected")
	}

	// Restart the replica: the record applied during the truncated
	// transfer sits in its WAL and must survive recovery.
	tsB.Close()
	if err := pB.Close(); err != nil {
		t.Fatal(err)
	}
	tsB, pB = durableServer(t, dirB)
	t.Cleanup(tsB.Close)
	t.Cleanup(func() { pB.Close() })

	resp, err := server.CatchUp(context.Background(), pB, tsA.URL, []int{0})
	if err != nil {
		t.Fatalf("second catch-up: %v", err)
	}
	if resp.Records != 4 || resp.Applied != 1 || resp.Duplicates != 3 {
		t.Fatalf("catch-up applied=%d duplicates=%d records=%d, want 1/3/4 (batch 3 landed during the cut transfer)",
			resp.Applied, resp.Duplicates, resp.Records)
	}

	// Byte-identical answers on both copies.
	ra := postQuery(t, tsA, replScanQuery)
	rb := postQuery(t, tsB, replScanQuery)
	ja, _ := json.Marshal(struct {
		C []string
		R [][]string
	}{ra.Columns, ra.Rows})
	jb, _ := json.Marshal(struct {
		C []string
		R [][]string
	}{rb.Columns, rb.Rows})
	if !bytes.Equal(ja, jb) {
		t.Fatalf("copies diverge after catch-up:\nprimary: %s\nreplica: %s", ja, jb)
	}
	if len(ra.Rows) != 4 {
		t.Fatalf("primary answers %d rows, want 4", len(ra.Rows))
	}

	// A third transfer is a clean no-op.
	resp, err = server.CatchUp(context.Background(), pB, tsA.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 0 || resp.Duplicates != 4 {
		t.Fatalf("repeat catch-up applied=%d duplicates=%d, want 0/4", resp.Applied, resp.Duplicates)
	}
}

// TestCatchupHistoryGapIsConflict: when the peer has compacted tagged WAL
// records the puller never applied, catch-up must refuse loudly (409,
// "re-seed required") instead of reporting success with missing data.
func TestCatchupHistoryGapIsConflict(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	tsA, pA := durableServer(t, dirA)
	t.Cleanup(tsA.Close)
	t.Cleanup(func() { pA.Close() })
	tsB, pB := durableServer(t, dirB)
	t.Cleanup(tsB.Close)
	t.Cleanup(func() { pB.Close() })

	postTagged(t, tsA.URL, 0, 1, taggedBatch(1))
	postTagged(t, tsA.URL, 0, 2, taggedBatch(2))
	if err := pA.Compact(); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"from": tsA.URL})
	resp, err := http.Post(tsB.URL+"/catchup", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/catchup returned %d (%s), want 409", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "re-seed") {
		t.Fatalf("gap error %q does not tell the operator to re-seed", msg)
	}
}

// TestIngestRefusesForeignBatches covers the mixed-version and malformed
// cases of the two /ingest media types: a JSON-lines body carrying an older
// coordinator's replication headers (applied untagged, its retry would
// duplicate it), a batch body without a tag, a batch body that does not
// decode, and one over MaxIngestBytes. Each is refused and none is applied.
func TestIngestRefusesForeignBatches(t *testing.T) {
	ts, st := newTestServer(t, server.Options{MaxIngestBytes: 4 << 10})
	ds, err := trace.Read(strings.NewReader(taggedBatch(1)))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 8<<10)
	copy(big, storage.EncodeBatch(&storage.ReplTag{Epoch: "e1", Seq: 1}, ds.Entities, ds.Events))
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		header            map[string]string
		status            int
		names             []string
	}{
		{"json lines with replication headers", "application/x-ndjson", []byte(taggedBatch(1)),
			map[string]string{"X-Aiql-Repl-Epoch": "e1", "X-Aiql-Repl-Shard": "0", "X-Aiql-Repl-Seq": "1"},
			http.StatusBadRequest, []string{"application/x-ndjson", cluster.BatchContentType}},
		{"untagged batch", cluster.BatchContentType, storage.AppendBatch(nil, ds.Entities, ds.Events), nil,
			http.StatusBadRequest, []string{"no replication tag"}},
		{"malformed batch", cluster.BatchContentType, []byte("{not a batch"), nil, http.StatusBadRequest, nil},
		{"oversized batch", cluster.BatchContentType, big, nil, http.StatusRequestEntityTooLarge, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, gen0 := st.EventCount(), st.Generation()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			msg, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, msg, tc.status)
			}
			for _, name := range tc.names {
				if !strings.Contains(string(msg), name) {
					t.Errorf("error %s does not name %q", msg, name)
				}
			}
			if st.EventCount() != events || st.Generation() != gen0 {
				t.Fatalf("refused ingest changed the store: %d→%d events, generation %d→%d", events, st.EventCount(), gen0, st.Generation())
			}
		})
	}
}

// TestReplicatedScanReadsOnlyItsShard: a replicated worker's store holds two
// shards' data, and a /scan for one of them must read that shard's
// partitions only — never open the other shard's and drop its rows — and
// count Limit against that shard's rows.
func TestReplicatedScanReadsOnlyItsShard(t *testing.T) {
	const nshards = 3
	b := gen.NewBuilder(9)
	for agent := 1; agent <= 4; agent++ {
		proc := b.Proc(agent, "/bin/bash")
		for day := 0; day < 4; day++ {
			for k := 0; k < 3; k++ {
				f := b.File(agent, fmt.Sprintf("/var/log/f%d", k))
				b.Emit(agent, proc, f, types.OpRead, gen.DayStart(day)+int64(k+1)*1000, 64)
			}
		}
	}
	all := b.Dataset()
	home := func(ev *types.Event) int {
		return mpp.SemanticsAware.Shard(ev.AgentID, timeutil.DayIndex(ev.Start), nshards)
	}
	// The worker for shard 1 stores its own shard and a replica of shard 0.
	held := func(ev *types.Event) bool { s := home(ev); return s == 0 || s == 1 }
	st := storage.New(storage.Options{})
	st.Ingest(keepEvents(all, held))
	srv := server.New(st, engine.New(st, engine.Options{}), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for shard := 0; shard <= 1; shard++ {
		// The reference: the same query on a store holding only this shard.
		mine := storage.New(storage.Options{})
		mine.Ingest(keepEvents(all, func(ev *types.Event) bool { return home(ev) == shard }))
		want := eventIDs(mine.Run(context.Background(), &storage.DataQuery{Ops: types.NewOpSet(types.OpRead)}))
		if len(want) == 0 {
			t.Fatalf("shard %d holds no events; the dataset does not exercise the filter", shard)
		}
		parts := map[[2]int]bool{}
		for i := range all.Events {
			if ev := &all.Events[i]; home(ev) == shard {
				parts[[2]int{ev.AgentID, timeutil.DayIndex(ev.Start)}] = true
			}
		}

		got, traceID := scanShard(t, ts.URL, shard, nshards, 0)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shard %d scan returned events %v, want %v", shard, got, want)
		}
		span := scanServeSpan(t, ts.URL, traceID)
		if n := span.Counters["partitions_scanned"]; n != int64(len(parts)) {
			t.Errorf("shard %d scan read %d partitions, want its own %d", shard, n, len(parts))
		}
		for _, k := range []int{1, 5, len(want), len(want) + 3} {
			got, _ := scanShard(t, ts.URL, shard, nshards, k)
			if n := min(k, len(want)); fmt.Sprint(got) != fmt.Sprint(want[:n]) {
				t.Errorf("shard %d scan with limit %d returned %v, want %v", shard, k, got, want[:n])
			}
		}
	}
}

// keepEvents returns the dataset's events that keep accepts, with every
// entity.
func keepEvents(ds *types.Dataset, keep func(*types.Event) bool) *types.Dataset {
	var evs []types.Event
	for i := range ds.Events {
		if keep(&ds.Events[i]) {
			evs = append(evs, ds.Events[i])
		}
	}
	return types.NewDataset(ds.Entities, evs)
}

func eventIDs(ms []storage.Match) []types.EventID {
	ids := make([]types.EventID, len(ms))
	for i, m := range ms {
		ids[i] = m.Event.ID
	}
	return ids
}

// scanShard posts a /scan for one shard over all agents and days and reads
// its frames (kind byte, u32 LE length, payload: 2 a batch in the storage
// batch codec, 3 the end trailer, 4 an error), returning the event ids in
// stream order and the request's trace ID.
func scanShard(t *testing.T, url string, shard, nshards, limit int) ([]types.EventID, string) {
	t.Helper()
	body, err := json.Marshal(&cluster.WireQuery{Ops: []string{"read"}, Shard: shard, NShards: nshards, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("/scan returned %d: %s", resp.StatusCode, msg)
	}
	var ids []types.EventID
	for {
		var h [5]byte
		if _, err := io.ReadFull(resp.Body, h[:]); err != nil {
			t.Fatalf("scan stream ended without a trailer: %v", err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(h[1:]))
		if _, err := io.ReadFull(resp.Body, payload); err != nil {
			t.Fatal(err)
		}
		switch h[0] {
		case 2:
			_, evs, err := storage.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			for i := range evs {
				ids = append(ids, evs[i].ID)
			}
		case 3:
			if n := binary.LittleEndian.Uint64(payload); n != uint64(len(ids)) {
				t.Fatalf("scan trailer counts %d rows, stream carried %d", n, len(ids))
			}
			return ids, resp.Header.Get(obs.TraceIDHeader)
		case 4:
			t.Fatalf("scan failed: %s", payload)
		}
	}
}

// scanServeSpan polls the worker's /debug/slow for the scan's entry (it is
// recorded just after the response ends) and returns its scan-serve span.
func scanServeSpan(t *testing.T, url, traceID string) *obs.SpanJSON {
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
			if e.TraceID != traceID || e.Trace == nil {
				continue
			}
			for _, sp := range e.Trace.Spans {
				if sp.Name == "scan-serve" {
					return sp
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no scan-serve span for trace %q in the slow log", traceID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCatchUpForwardsTraceID: a catch-up's /walship pull carries the trace
// ID of the context it runs under, like every other node-to-node call.
func TestCatchUpForwardsTraceID(t *testing.T) {
	peer, pPeer := durableServer(t, t.TempDir())
	t.Cleanup(func() { pPeer.Close() })
	postTagged(t, peer.URL, 0, 1, taggedBatch(1))
	var got []string
	rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Method+" "+r.URL.Path+" "+r.Header.Get(obs.TraceIDHeader))
		peer.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(rec.Close)
	t.Cleanup(peer.Close)
	p, err := storage.OpenPersistent(t.TempDir(), storage.PersistOptions{FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	id := obs.NewTraceID()
	if _, err := server.CatchUp(obs.WithTrace(context.Background(), obs.NewTrace(id)), p, rec.URL, nil); err != nil {
		t.Fatal(err)
	}
	if want := "GET /walship " + id; len(got) != 1 || got[0] != want {
		t.Errorf("peer saw %q, want [%q]", got, want)
	}
}
