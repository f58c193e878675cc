package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// requestTimeout is the ledger's latency ceiling: a request that takes
// longer counts as failed, not as a slow sample.
const requestTimeout = 10 * time.Second

// conn is one load-generating connection: a client whose transport holds
// at most one TCP connection to the daemon, so "two connections" in a
// workload definition means exactly two sockets.
type conn struct {
	base string
	http *http.Client
}

func dial(base string) *conn {
	return &conn{base: base, http: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// span is one node of a ?trace=1 span tree, as /query returns it.
type span struct {
	Name     string            `json:"name"`
	StartMs  float64           `json:"start_ms"`
	DurMs    float64           `json:"dur_ms"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*span           `json:"children,omitempty"`
}

// queryReply is the part of a /query response the ledger reads.
type queryReply struct {
	Rows      [][]string `json:"rows"`
	ElapsedMs float64    `json:"elapsed_ms"`
	Trace     *struct {
		ID    string  `json:"id"`
		Spans []*span `json:"spans"`
	} `json:"trace,omitempty"`
}

// post sends one request body and decodes the 200 reply into out (when
// non-nil); any other status is an error carrying the reply body.
func (c *conn) post(path, contentType string, body io.Reader, out any) error {
	resp, err := c.http.Post(c.base+path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// query posts one AIQL text and returns the decoded reply and the latency
// from request written to body read and decoded.
func (c *conn) query(text string, traced bool) (*queryReply, time.Duration, error) {
	path := "/query"
	if traced {
		path += "?trace=1"
	}
	var reply queryReply
	t0 := now()
	if err := c.post(path, "text/plain", strings.NewReader(text), &reply); err != nil {
		return nil, 0, err
	}
	return &reply, now().Sub(t0), nil
}

// ingest posts one batch and returns when it is acknowledged.
func (c *conn) ingest(b *batch) error {
	var ack struct {
		Events int `json:"events"`
	}
	if err := c.post("/ingest", "application/x-ndjson", bytes.NewReader(b.body), &ack); err != nil {
		return err
	}
	if ack.Events != b.events {
		return fmt.Errorf("/ingest: acknowledged %d of %d events", ack.Events, b.events)
	}
	return nil
}

// postJSON posts v as JSON.
func (c *conn) postJSON(path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.post(path, "application/json", bytes.NewReader(body), nil)
}
