package server

// Replication endpoints and helpers: the one apply of a tagged batch
// (idempotent by coordinator batch tag) behind a coordinator's /ingest and
// a catch-up, the home-shard scan filter replicated workers apply, and the
// WAL-ship / catch-up pair a restarted replica uses to pull the batches it
// missed from the shard's other copy-holder. A tagged batch has one byte
// form everywhere: the WAL record payload (storage.EncodeBatch) is
// the /ingest body and each /walship batch frame. See docs/CLUSTER.md.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"aiql/internal/cluster"
	"aiql/internal/mpp"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// errBadBatch marks a tagged-batch payload that does not decode or carries
// no tag: the sender's fault, answered 400 on /ingest.
var errBadBatch = errors.New("malformed replication batch")

// applyTagged decodes one tagged batch and applies it through w, exactly
// once per tag: a coordinator's /ingest body and every batch a catch-up
// pulls go through here. quiet skips the standing-rule observer: replica
// copies and catch-up transfers re-deliver data the primary's ingest
// already evaluated, and rules must fire once per batch, not once per copy.
// It reports whether the batch was applied (false: a duplicate tag).
func applyTagged(w batchWriter, payload []byte, quiet bool) (*types.Dataset, bool, error) {
	tag, ents, evs, err := storage.DecodeMaybeTagged(payload)
	if err == nil && tag == nil {
		err = errors.New("batch carries no replication tag")
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errBadBatch, err)
	}
	ds := types.NewDataset(ents, evs)
	applied, err := w.IngestBatch(tag, ds, quiet)
	if err != nil {
		return nil, false, fmt.Errorf("apply %s: %w", tag, err)
	}
	return ds, applied, nil
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

// handleWalShip streams every tagged WAL record for the requested shards
// (?shards=0,2; all shards when absent) as a cluster.ShipContentType frame
// stream: each record's payload unmodified, then a trailer carrying the
// record count and this store's applied-state for those shards, which lets
// the puller prove it now covers everything this peer applied, or detect
// that compaction folded needed history into segments. Durable workers
// only: the WAL is the replication log. Compaction is held off for the
// duration, so the stream is a consistent snapshot of the log.
func (s *Server) handleWalShip(w http.ResponseWriter, r *http.Request) {
	shards, err := parseShardSet(r.URL.Query().Get("shards"))
	if err != nil {
		s.httpTraceError(w, r, http.StatusBadRequest, err)
		return
	}
	_ = cluster.WriteShip(w, func(emit func([]byte) error) ([]storage.ReplShardState, error) {
		return s.durable.ShipReplicated(shards, emit)
	})
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
		if _, gap := err.(*historyGapError); gap {
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
	if err := cluster.WantContentType(resp.Header, cluster.ShipContentType); err != nil {
		return nil, fmt.Errorf("catchup: peer %w", err)
	}
	out := &CatchupResponse{}
	peerStates, err := cluster.ReadShip(resp.Body, func(payload []byte) error {
		// Quiet: catch-up re-delivers data whose original ingest
		// already fed the standing rules on the shard's primary.
		_, applied, err := applyTagged(durable, payload, true)
		if err != nil {
			return err
		}
		out.Records++
		if applied {
			out.Applied++
		} else {
			out.Duplicates++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("catchup: %w", err)
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
