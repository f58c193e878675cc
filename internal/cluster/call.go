package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"aiql/internal/obs"
)

// StatusError is a peer's non-200 answer to a node-to-node call. Callers
// that treat some refusals differently (a 5xx is retried, a 404 means the
// rule is gone) branch on Code with errors.As.
type StatusError struct {
	// Method and Path name the request ("POST", "/ingest").
	Method, Path string
	// Code is the HTTP status code, Status its text ("404 Not Found").
	Code   int
	Status string
	// Body is the start of the answer (at most 1 KiB), trimmed.
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s returned %s: %s", e.Method, e.Path, e.Status, e.Body)
}

// Call makes one request to another node; every node-to-node call goes
// through it. It stamps the context's trace ID on obs.TraceIDHeader, so the
// peer's logs and spans join the caller's trace; sends body, when non-nil,
// as contentType; and, when want is set, asks for and requires that
// response content type (WantContentType). A non-200 answer comes back as a
// *StatusError with the body read and closed; otherwise the caller owns
// resp.Body.
func Call(ctx context.Context, client *http.Client, method, url string, body []byte, contentType, want string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if want != "" {
		req.Header.Set("Accept", want)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceIDHeader, id)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		return nil, &StatusError{Method: method, Path: req.URL.Path, Code: resp.StatusCode, Status: resp.Status, Body: string(bytes.TrimSpace(msg))}
	}
	if want != "" {
		if err := WantContentType(resp.Header, want); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("%s %s %w", method, req.URL.Path, err)
		}
	}
	return resp, nil
}

// send makes a call to worker shard whose answer carries nothing past its
// status, and reads that answer to EOF so the connection goes back to the
// transport's pool.
func (c *Coordinator) send(ctx context.Context, method string, shard int, path string, body []byte, contentType string) error {
	resp, err := Call(ctx, c.client, method, c.workers[shard]+path, body, contentType, "")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.Body.Close()
}
