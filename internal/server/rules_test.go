package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aiql/internal/server"
	"aiql/internal/stream"
)

// registerRule posts a rule and returns its info.
func registerRule(t *testing.T, ts *httptest.Server, spec stream.RuleSpec) stream.RuleInfo {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/rules", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info stream.RuleInfo
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /rules returned %d: %v", resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// ingestLines posts aiqlgen-format JSON lines.
func ingestLines(t *testing.T, ts *httptest.Server, lines string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest returned %d", resp.StatusCode)
	}
}

const markerBatch = `{"kind":"entity","id":770001,"type":"proc","agentid":1,"attrs":{"exe_name":"/usr/bin/exfil","pid":"777"}}
{"kind":"entity","id":770002,"type":"file","agentid":1,"attrs":{"name":"/home/alice/.ssh/id_rsa"}}
{"kind":"event","id":770003,"agentid":1,"subject":770001,"object":770002,"op":"read","start":1488412800000,"seq":770003}
`

// TestRulesEndpointLifecycle registers a rule over HTTP, streams one live
// match via /subscribe, lists it, and deletes it.
func TestRulesEndpointLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})

	info := registerRule(t, ts, stream.RuleSpec{Query: `proc p read file f["%id_rsa"] return p, f`})
	if info.ID == "" || len(info.Columns) != 2 {
		t.Fatalf("rule info %+v", info)
	}

	// Subscribe, then ingest a matching batch; the emission must arrive on
	// the open stream.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/subscribe/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr struct {
		Rule    string   `json:"rule"`
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Rule != info.ID {
		t.Fatalf("bad header %s (%v)", sc.Bytes(), err)
	}

	ingestLines(t, ts, markerBatch)

	lineCh := make(chan string, 1)
	go func() {
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	select {
	case line := <-lineCh:
		var em stream.Emission
		if err := json.Unmarshal([]byte(line), &em); err != nil {
			t.Fatalf("bad emission %q: %v", line, err)
		}
		if em.Seq != 1 || em.Row[0] != "/usr/bin/exfil" {
			t.Errorf("emission %+v", em)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no emission within 5s")
	}

	// Listing includes the rule with its counters.
	lresp, err := http.Get(ts.URL + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Rules []stream.RuleInfo `json:"rules"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Rules) != 1 || listing.Rules[0].Seq != 1 || listing.Rules[0].Subscribers != 1 {
		t.Errorf("listing %+v", listing.Rules)
	}

	// Delete: 200, then the open subscription closes with rule-deleted.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rules/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d", dresp.StatusCode)
	}
	closed := make(chan string, 1)
	go func() {
		for sc.Scan() {
			var c struct {
				Closed *string `json:"closed"`
			}
			if json.Unmarshal(sc.Bytes(), &c) == nil && c.Closed != nil {
				closed <- *c.Closed
				return
			}
		}
		close(closed)
	}()
	select {
	case reason := <-closed:
		if reason != stream.DropRuleDeleted {
			t.Errorf("close reason %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not close after rule deletion")
	}

	// Second delete: 404.
	dreq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rules/"+info.ID, nil)
	dresp2, err := http.DefaultClient.Do(dreq2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE returned %d", dresp2.StatusCode)
	}
}

// TestRulesEndpointErrors covers the HTTP status mapping.
func TestRulesEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	post := func(spec stream.RuleSpec) int {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/rules", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(stream.RuleSpec{Query: "proc p read file f return count(f)"}); got != http.StatusBadRequest {
		t.Errorf("aggregate rule: %d", got)
	}
	if got := post(stream.RuleSpec{Query: ""}); got != http.StatusBadRequest {
		t.Errorf("empty rule: %d", got)
	}
	if got := post(stream.RuleSpec{ID: "dup", Query: "proc p read file f return p"}); got != http.StatusOK {
		t.Fatalf("first register: %d", got)
	}
	if got := post(stream.RuleSpec{ID: "dup", Query: "proc p read file f return p"}); got != http.StatusConflict {
		t.Errorf("duplicate: %d", got)
	}
	resp, err := http.Get(ts.URL + "/subscribe/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("subscribe unknown: %d", resp.StatusCode)
	}
}

// TestRulesCapReturns429 asserts the -max-rules limit surfaces as 429.
func TestRulesCapReturns429(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{MaxRules: 1})
	registerRule(t, ts, stream.RuleSpec{Query: "proc p read file f return p"})
	body, _ := json.Marshal(stream.RuleSpec{Query: "proc p write file f return p"})
	resp, err := http.Post(ts.URL+"/rules", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit register returned %d", resp.StatusCode)
	}
}

// TestSubscribeSSE checks the Server-Sent-Events framing.
func TestSubscribeSSE(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	info := registerRule(t, ts, stream.RuleSpec{Query: `proc p read file f["%id_rsa"] return p, f`, Backfill: true})
	// The test dataset already contains one id_rsa read; backfill emits it,
	// and ?since=0 replays it to a late subscriber.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/subscribe/"+info.ID+"?since=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var gotEvent, gotData bool
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for !(gotEvent && gotData) {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before a match event")
			}
			if line == "event: match" {
				gotEvent = true
			}
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"row"`) {
				gotData = true
			}
		case <-deadline:
			t.Fatal("no SSE match frame within 5s")
		}
	}
}

// TestStatsStreamingBlock asserts the /stats streaming counters.
func TestStatsStreamingBlock(t *testing.T) {
	ts, _ := newTestServer(t, server.Options{})
	registerRule(t, ts, stream.RuleSpec{Query: `proc p read file f["%id_rsa"] return p, f`, Backfill: true})
	st := getStats(t, ts)
	rules := mustStat(t, st, "aiql_stream_rules_count")
	emitted := mustStat(t, st, "aiql_stream_emitted_total")
	backfills := mustStat(t, st, "aiql_stream_backfills_total")
	if rules != 1 || emitted == 0 || backfills != 1 {
		t.Errorf("streaming stats: rules %v, emitted %v, backfills %v; want 1, >0, 1", rules, emitted, backfills)
	}
}
