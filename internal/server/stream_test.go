package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"aiql/internal/server"
)

// postNDJSON issues /query with the streaming Accept header and decodes the
// header line plus row lines.
func postNDJSON(t *testing.T, url, src string) (map[string]any, [][]string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line in NDJSON stream")
	}
	var head map[string]any
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("bad header line %q: %v", sc.Text(), err)
	}
	var rows [][]string
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row []string
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return head, rows
}

func TestQueryNDJSONStreaming(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	head, rows := postNDJSON(t, ts.URL, keyReadQuery)

	cols, _ := head["columns"].([]any)
	if len(cols) != 2 {
		t.Fatalf("header columns = %v, want 2 columns", head["columns"])
	}
	rc, _ := head["row_count"].(float64)
	if int(rc) != len(rows) {
		t.Fatalf("header row_count %v != %d streamed rows", head["row_count"], len(rows))
	}
	if len(rows) != 1 {
		t.Fatalf("streamed %d rows, want 1", len(rows))
	}
	if !strings.Contains(rows[0][1], "id_rsa") {
		t.Fatalf("unexpected row %v", rows[0])
	}

	// The same query without the Accept header still gets plain JSON.
	plain := postQuery(t, ts, keyReadQuery)
	if plain.RowCount != 1 || len(plain.Rows) != 1 {
		t.Fatalf("plain JSON response lost rows: %+v", plain)
	}
}

// TestNDJSONServesFromResultCache: the second streamed request is served
// from the result cache (same plan, same snapshot generation).
func TestNDJSONServesFromResultCache(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	head, _ := postNDJSON(t, ts.URL, keyReadQuery)
	if cached, _ := head["result_cached"].(bool); cached {
		t.Fatal("first request claimed a result-cache hit")
	}
	head, rows := postNDJSON(t, ts.URL, keyReadQuery)
	if cached, _ := head["result_cached"].(bool); !cached {
		t.Fatal("second request missed the result cache")
	}
	if len(rows) != 1 {
		t.Fatalf("cached stream returned %d rows, want 1", len(rows))
	}
}

// TestNoSnapshotLeaks: after a mix of plain, streamed and erroring queries,
// every per-request snapshot has been released.
func TestNoSnapshotLeaks(t *testing.T) {
	ts, st := newTestServer(t, server.Options{})
	postQuery(t, ts, keyReadQuery)
	postNDJSON(t, ts.URL, keyReadQuery)
	// A query that fails to parse must release its snapshot too.
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("this is not aiql"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("nonsense query succeeded")
	}
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still live after requests finished", n)
	}
	if n := mustStat(t, getStats(t, ts), "aiql_live_snapshots_count"); n != 0 {
		t.Fatalf("/stats reports %v live snapshots", n)
	}
}
