package server

// Replication endpoints and helpers: the tagged /ingest path (idempotent
// apply by coordinator batch tag), the home-shard scan filter replicated
// workers apply, and the WAL-ship / catch-up pair a restarted replica uses
// to pull the batches it missed from the shard's other copy-holder. See
// docs/CLUSTER.md.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"aiql/internal/mpp"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
)

// replTagFromRequest parses the replication headers a coordinator (or a
// catch-up pull) attaches to /ingest: a nil tag on an untagged request, an
// error when the headers are present but malformed. quiet reports whether
// the batch should skip the standing-rule observer: replica copies and
// catch-up transfers re-deliver data the primary's ingest already
// evaluated, and rules must fire once per batch, not once per copy.
func replTagFromRequest(r *http.Request) (tag *storage.ReplTag, quiet bool, err error) {
	epoch := r.Header.Get("X-Aiql-Repl-Epoch")
	if epoch == "" {
		return nil, false, nil
	}
	shard, serr := strconv.Atoi(r.Header.Get("X-Aiql-Repl-Shard"))
	seq, qerr := strconv.ParseUint(r.Header.Get("X-Aiql-Repl-Seq"), 10, 64)
	if serr != nil || qerr != nil || shard < 0 || seq == 0 {
		return nil, false, fmt.Errorf("malformed replication headers (shard %q, seq %q)",
			r.Header.Get("X-Aiql-Repl-Shard"), r.Header.Get("X-Aiql-Repl-Seq"))
	}
	role := r.Header.Get("X-Aiql-Repl-Role")
	return &storage.ReplTag{Epoch: epoch, Shard: shard, Seq: seq}, role == "replica" || role == "catchup", nil
}

// shardFilterCursor narrows a store scan to rows whose home shard (under
// the semantics-aware placement over nshards workers) is shard. A
// replicated worker's store holds two shards' data; the coordinator asks
// each worker for exactly one shard's rows so the gather never
// double-counts. The limit applies after the filter — a pushed-down
// pre-filter limit would undercount.
type shardFilterCursor struct {
	inner   storage.Cursor
	shard   int
	nshards int
	limit   int
	emitted int
	done    bool
}

func (c *shardFilterCursor) Next(batch []storage.Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	want := len(batch)
	if c.limit > 0 {
		if remain := c.limit - c.emitted; remain < want {
			want = remain
		}
	}
	if want <= 0 {
		c.done = true
		return 0
	}
	for {
		n := c.inner.Next(batch[:want])
		if n == 0 {
			return 0
		}
		kept := 0
		for i := 0; i < n; i++ {
			ev := batch[i].Event
			if mpp.SemanticsAware.Shard(ev.AgentID, timeutil.DayIndex(ev.Start), c.nshards) != c.shard {
				continue
			}
			batch[kept] = batch[i]
			kept++
		}
		if kept == 0 {
			// Every row in this batch belonged to the other shard; keep
			// pulling — returning 0 would read as end-of-stream.
			continue
		}
		c.emitted += kept
		return kept
	}
}

func (c *shardFilterCursor) Err() error { return c.inner.Err() }
func (c *shardFilterCursor) Close()     { c.inner.Close() }

// shipRecord is one NDJSON line of a /walship response: a tagged batch
// ("tag"), the explicit end trailer carrying the shipper's applied-state
// for the requested shards ("end"), or an in-band failure ("error"). The
// trailer lets the puller prove it now covers everything the peer applied
// — or detect that compaction folded needed history into segments.
type shipRecord struct {
	Kind  string                   `json:"kind"`
	Epoch string                   `json:"epoch,omitempty"`
	Shard int                      `json:"shard,omitempty"`
	Seq   uint64                   `json:"seq,omitempty"`
	Batch []byte                   `json:"batch,omitempty"`
	Count int                      `json:"count,omitempty"`
	State []storage.ReplShardState `json:"state,omitempty"`
	Error string                   `json:"error,omitempty"`
}

// handleWalShip streams every tagged WAL record for the requested shards
// (?shards=0,2; all shards when absent) as NDJSON. Durable workers only —
// the WAL is the replication log. Compaction is held off for the duration,
// so the stream is a consistent snapshot of the log.
func (s *Server) handleWalShip(w http.ResponseWriter, r *http.Request) {
	shards, err := parseShardSet(r.URL.Query().Get("shards"))
	if err != nil {
		s.httpTraceError(w, r, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	count := 0
	states, err := s.durable.ShipReplicated(shards, func(tag storage.ReplTag, payload []byte) error {
		count++
		return enc.Encode(&shipRecord{
			Kind: "tag", Epoch: tag.Epoch, Shard: tag.Shard, Seq: tag.Seq, Batch: payload,
		})
	})
	if err != nil {
		_ = enc.Encode(&shipRecord{Kind: "error", Error: err.Error()})
		return
	}
	_ = enc.Encode(&shipRecord{Kind: "end", Count: count, State: states})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func parseShardSet(csv string) (map[int]bool, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	set := make(map[int]bool)
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad shards parameter %q", csv)
		}
		set[n] = true
	}
	return set, nil
}

// catchupRequest is the body of POST /catchup: pull the named shards'
// tagged history from the peer's WAL and apply whatever this store has not
// already applied.
type catchupRequest struct {
	From   string `json:"from"`
	Shards []int  `json:"shards,omitempty"`
}

// CatchupResponse reports one catch-up transfer.
type CatchupResponse struct {
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	Records    int `json:"records"`
}

func (s *Server) handleCatchup(w http.ResponseWriter, r *http.Request) {
	var req catchupRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.httpTraceError(w, r, http.StatusBadRequest, fmt.Errorf("decode catchup request: %w", err))
		return
	}
	if strings.TrimSpace(req.From) == "" {
		s.httpTraceError(w, r, http.StatusBadRequest, fmt.Errorf("catchup: missing \"from\" peer URL"))
		return
	}
	resp, err := CatchUp(r.Context(), s.durable, req.From, req.Shards)
	if err != nil {
		status := http.StatusBadGateway
		if isHistoryGap(err) {
			// The peer compacted WAL records this store never applied:
			// catch-up cannot close the gap; the operator must re-seed
			// from a fresh copy.
			status = http.StatusConflict
		}
		s.httpTraceError(w, r, status, err)
		return
	}
	s.results.Purge()
	writeJSON(w, http.StatusOK, resp)
}

// historyGapError marks a catch-up that cannot complete because the peer's
// WAL no longer holds records the peer applied and this store is missing.
type historyGapError struct{ state storage.ReplShardState }

func (e *historyGapError) Error() string {
	return fmt.Sprintf("catchup: peer history for epoch %s shard %d compacted past this store's state (peer watermark %d); re-seed required",
		e.state.Epoch, e.state.Shard, e.state.Watermark)
}

func isHistoryGap(err error) bool {
	_, ok := err.(*historyGapError)
	return ok
}

// CatchUp pulls the peer's tagged WAL history for the given shards (all
// when nil) and applies every batch this store has not already applied —
// idempotently, so overlapping or repeated transfers are no-ops. After the
// stream, the peer's applied-state trailer is checked against local state:
// if the peer has applied tags this store still lacks after the transfer,
// those records were compacted out of the peer's WAL and a
// *historyGapError is returned — the store needs a re-seed, not a retry.
// cmd/aiqld drives this at boot (-catchup-from) and POST /catchup drives
// it on demand.
func CatchUp(ctx context.Context, durable *storage.Persistent, from string, shards []int) (*CatchupResponse, error) {
	if err := durable.WarmUp(); err != nil {
		return nil, err
	}
	target := strings.TrimRight(from, "/") + "/walship"
	if len(shards) > 0 {
		parts := make([]string, len(shards))
		for i, sh := range shards {
			parts[i] = strconv.Itoa(sh)
		}
		target += "?shards=" + url.QueryEscape(strings.Join(parts, ","))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("catchup: pull %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("catchup: peer returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	out := &CatchupResponse{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 512<<20)
	sawEnd := false
	var peerStates []storage.ReplShardState
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var rec shipRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("catchup: malformed ship record: %w", err)
		}
		switch rec.Kind {
		case "tag":
			ds, err := storage.DecodeBatchPayload(rec.Batch)
			if err != nil {
				return nil, fmt.Errorf("catchup: batch for %s/%d/%d: %w", rec.Epoch, rec.Shard, rec.Seq, err)
			}
			tag := storage.ReplTag{Epoch: rec.Epoch, Shard: rec.Shard, Seq: rec.Seq}
			// Quiet: catch-up re-delivers data whose original ingest
			// already fed the standing rules on the shard's primary.
			applied, err := durable.IngestBatch(&tag, ds, true)
			if err != nil {
				return nil, fmt.Errorf("catchup: apply %s: %w", tag, err)
			}
			out.Records++
			if applied {
				out.Applied++
			} else {
				out.Duplicates++
			}
		case "end":
			sawEnd = true
			peerStates = rec.State
		case "error":
			return nil, fmt.Errorf("catchup: peer ship failed: %s", rec.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("catchup: stream: %w", err)
	}
	if !sawEnd {
		return nil, fmt.Errorf("catchup: ship stream truncated (no end trailer): %w", io.ErrUnexpectedEOF)
	}
	// Gap check: everything the peer has applied for these shards must now
	// be applied here too. Anything missing was folded into the peer's
	// segments before this store ever saw it — unshippable over the WAL.
	for _, peer := range peerStates {
		local := durable.ReplState(peer.Epoch, peer.Shard)
		if !local.Covers(peer) {
			return nil, &historyGapError{state: peer}
		}
	}
	return out, nil
}
