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

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/trace"
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
func postTagged(t *testing.T, url string, shard int, seq uint64, role, batch string) *server.IngestResponse {
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
	req.Header.Set(cluster.ReplRoleHeader, role)
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

	first := postTagged(t, ts.URL, 0, 1, "primary", taggedBatch(1))
	if first.Duplicate || first.Events != 1 {
		t.Fatalf("first tagged ingest: %+v", first)
	}
	count := st.EventCount()

	again := postTagged(t, ts.URL, 0, 1, "primary", taggedBatch(1))
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
		if r := postTagged(t, tsA.URL, 0, uint64(k), "primary", taggedBatch(k)); r.Duplicate {
			t.Fatalf("batch %d duplicate on primary", k)
		}
		if k <= 2 {
			if r := postTagged(t, tsB.URL, 0, uint64(k), "replica", taggedBatch(k)); r.Duplicate {
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

	postTagged(t, tsA.URL, 0, 1, "primary", taggedBatch(1))
	postTagged(t, tsA.URL, 0, 2, "primary", taggedBatch(2))
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
