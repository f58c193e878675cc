// Package cluster is the networked scatter/gather tier: a coordinator
// aiqld fans each data query out over HTTP to worker aiqld shards and
// merges their /scan frame streams back into the engine's cursor contract.
//
// Where internal/mpp emulates the paper's master/data-node deployment
// (Sec. 3.2, Fig. 7) in-process over local stores, this package runs it as
// a real multi-process topology: workers are ordinary store-backed aiqld
// processes exposing a streaming /scan endpoint, and the coordinator is an
// engine.Backend whose Scan
//
//   - eliminates workers whose shards provably hold no matching events,
//     using the same (agent, day) placement model the in-process cluster
//     uses (mpp.Placement.Shards) — a spatially and temporally constrained
//     query contacts only the shards that can answer it;
//   - POSTs the synthesized data query (predicates, allow-sets, window,
//     limit — everything constrained execution pushed down) to each
//     surviving worker;
//   - gathers the row streams in shard order through remote cursors, so
//     the engine above sees one ordinary storage.Cursor.
//
// Context cancellation propagates: canceling the engine's context aborts
// every in-flight worker request. Worker failures — connection refused,
// non-200, a stream dying mid-flight — surface as a typed *PartialError
// with per-worker detail, never as a silently short result.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aiql/internal/mpp"
	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// Options configure a Coordinator.
type Options struct {
	// Placement is the data-distribution model; the coordinator prunes and
	// scatters with it. The zero value is mpp.ArrivalOrder, which
	// round-robins ingest and disables worker elimination (every scan fans
	// out to all workers); pass mpp.SemanticsAware — as aiqld does by
	// default — for the paper's (agent, day) model and pre-fan-out pruning.
	Placement mpp.Placement
	// Client issues the worker HTTP requests. Defaults to a client with
	// sensible connection pooling and no overall timeout (scans stream
	// indefinitely; cancellation comes from the request context).
	Client *http.Client
	// Replicas is the copy count per home shard. The default (0 or 1) is
	// the pre-replication topology: each shard lives on exactly one
	// worker. 2 turns on R=2 replication — scatter ingest dual-writes each
	// home shard to its primary and to the next worker in ring order
	// (mpp.Placement.Replica), and /scan fan-out fails over to the replica
	// before declaring a partial failure. Requires mpp.SemanticsAware
	// placement (ArrivalOrder has no home shard to replicate) and at least
	// two workers. Values above 2 are rejected. At 2, a rule subscription
	// also re-dials a dropped worker stream (see consumeWorker).
	Replicas int
}

// Coordinator fans data queries out to worker shards. It implements
// engine.Backend; worker i serves shard i of the placement.
type Coordinator struct {
	workers   []string
	placement mpp.Placement
	client    *http.Client
	replicas  int
	// epoch is this coordinator process's replication-stream nonce: batch
	// tags are (epoch, shard, seq), so a restarted coordinator's sequence
	// numbers can never collide with a previous life's.
	epoch string

	scans    atomic.Uint64
	requests atomic.Uint64
	pruned   atomic.Uint64
	failures atomic.Uint64
	ingests  atomic.Uint64
	// scattered counts events scattered so far; it rotates the round-robin
	// start across batches under ArrivalOrder so a stream of small /ingest
	// batches stays balanced instead of piling onto shard 0.
	scattered atomic.Uint64
	// failovers counts scans served by a replica after the primary failed
	// mid-stream; degraded counts ingests where exactly one of a shard's
	// two copies landed; ingestRetries counts re-posted ingest requests.
	failovers     atomic.Uint64
	degraded      atomic.Uint64
	ingestRetries atomic.Uint64

	// rseqMu guards rseq, the per-shard replication batch sequence.
	rseqMu sync.Mutex
	rseq   map[int]uint64

	// Continuous-query state (rules.go): the registry of coordinator rules
	// and the merged-stream counters.
	rulesMu         sync.Mutex
	rules           map[string]*coordRule
	ruleSeq         uint64
	mergedEmissions atomic.Uint64
}

// New creates a coordinator over worker base URLs ("http://host:port").
// The worker order is the shard assignment and must match the order used
// when the data was placed.
func New(workers []string, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	urls := make([]string, len(workers))
	seen := make(map[string]int, len(workers))
	for i, w := range workers {
		for len(w) > 0 && w[len(w)-1] == '/' {
			w = w[:len(w)-1]
		}
		if w == "" {
			return nil, fmt.Errorf("cluster: empty worker URL at index %d", i)
		}
		if j, dup := seen[w]; dup {
			// Two shards mapped to one process would silently halve the
			// cluster: the worker identifies as one shard and every scan
			// routed to the other would be rejected (or worse, under
			// ArrivalOrder, double-counted).
			return nil, fmt.Errorf("cluster: duplicate worker URL %q at indexes %d and %d", w, j, i)
		}
		seen[w] = i
		urls[i] = w
	}
	switch {
	case opts.Replicas > 2:
		return nil, fmt.Errorf("cluster: replication factor %d not supported (max 2)", opts.Replicas)
	case opts.Replicas == 2 && opts.Placement != mpp.SemanticsAware:
		return nil, fmt.Errorf("cluster: replication requires the semantics-aware placement (%s has no home shard to replicate)", opts.Placement)
	case opts.Replicas == 2 && len(urls) < 2:
		return nil, fmt.Errorf("cluster: replication factor 2 needs at least 2 workers, have %d", len(urls))
	}
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("cluster: epoch nonce: %w", err)
	}
	return &Coordinator{
		workers:   urls,
		placement: opts.Placement,
		client:    client,
		replicas:  replicas,
		epoch:     hex.EncodeToString(nonce[:]),
		rseq:      make(map[int]uint64),
	}, nil
}

// Replicas returns the configured copy count per home shard (1 or 2).
func (c *Coordinator) Replicas() int { return c.replicas }

// Workers returns the worker base URLs in shard order.
func (c *Coordinator) Workers() []string { return c.workers }

// Placement returns the cluster's distribution policy.
func (c *Coordinator) Placement() mpp.Placement { return c.placement }

// Scan implements engine.Backend: eliminate workers the placement proves
// irrelevant, fan the query out to the rest, and gather their streams in
// shard order. The returned cursor reports *PartialError if any contacted
// worker fails.
func (c *Coordinator) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	c.scans.Add(1)
	targets := c.placement.Targets(len(c.workers), q)
	c.pruned.Add(uint64(len(c.workers) - len(targets)))
	wq, err := EncodeQuery(q)
	if err != nil {
		return storage.NewErrCursor(err)
	}
	// Unreplicated, every leg sends the same body, marshaled once.
	var shared []byte
	if c.replicas == 1 {
		if shared, err = json.Marshal(wq); err != nil {
			return storage.NewErrCursor(err)
		}
	}
	// Under a trace, the fan-out gets a "gather" span and each worker leg
	// hangs off it (remote.go); the span ends when the gather cursor closes,
	// so its duration covers the whole merge.
	gspan := obs.SpanFromContext(ctx).Child("gather")
	gspan.Add("workers_pruned", int64(len(c.workers)-len(targets)))
	cctx, cancel := context.WithCancel(ctx)
	if gspan != nil {
		cctx = obs.WithSpan(cctx, gspan)
	}
	cs := make([]storage.Cursor, len(targets))
	for i, shard := range targets {
		c.requests.Add(1)
		body := shared
		if c.replicas > 1 {
			// Replicated: the worker's store also holds its neighbour
			// shard's copy, so the query names the shard to read, which
			// makes the body per-shard.
			swq := *wq
			swq.Shard, swq.NShards = shard, len(c.workers)
			if body, err = json.Marshal(&swq); err != nil {
				cancel()
				return storage.NewErrCursor(err)
			}
		}
		cs[i] = newFailoverCursor(cctx, c, shard, body)
	}
	return &gatherCursor{
		coord:   c,
		cancel:  cancel,
		cs:      cs,
		workers: len(c.workers),
		limit:   q.Limit,
		span:    gspan,
		traceID: obs.TraceID(ctx),
	}
}

// Run is the materializing adapter over Scan, mirroring the other backends.
// The error is the gathered cursor's (typically a *PartialError).
// Canceling ctx propagates into the in-flight worker requests.
func (c *Coordinator) Run(ctx context.Context, q *storage.DataQuery) ([]storage.Match, error) {
	cur := c.Scan(ctx, q)
	defer cur.Close()
	out := storage.Drain(cur)
	return out, cur.Err()
}

// Ingest scatters a dataset across the workers: events go to their home
// shard under the coordinator's placement (round-robin under
// mpp.ArrivalOrder), entities are broadcast to every worker — the same
// dimension-table replication the in-process cluster applies. Every
// shard's batch is posted in the WAL record layout (BatchContentType) with
// a replication tag (epoch, shard, seq), so the worker-side apply is
// idempotent and a transient failure is retried without double-counting
// events. Under Replicas: 2 each batch posts to the shard's primary and its
// ring-successor replica with the same tag; a shard fails only when both
// copies fail, and a shard that landed on only one copy counts as degraded,
// not failed (the missing copy catches up from the survivor's WAL). Any
// shard failure returns a *PartialError naming the shards that did not
// land.
func (c *Coordinator) Ingest(ctx context.Context, ds *types.Dataset) error {
	c.ingests.Add(1)
	n := len(c.workers)
	offset := c.scattered.Add(uint64(len(ds.Events))) - uint64(len(ds.Events))
	shards := c.placement.Scatter(ds.Events, n, offset)
	// One tag per home shard, allocated up front so concurrent Ingest
	// calls get non-overlapping sequences.
	tags := make([]storage.ReplTag, n)
	c.rseqMu.Lock()
	for s := 0; s < n; s++ {
		c.rseq[s]++
		tags[s] = storage.ReplTag{Epoch: c.epoch, Shard: s, Seq: c.rseq[s]}
	}
	c.rseqMu.Unlock()

	return c.eachWorker(ctx, "ingest", func(s int) error {
		// Encoded once: the primary, the replica and any retry send these
		// same bytes.
		body := storage.EncodeBatch(&tags[s], ds.Entities, shards[s])
		perr := c.postIngest(ctx, s, body)
		replica := c.placement.Replica(s, n)
		if c.replicas == 1 || replica < 0 {
			return perr
		}
		rerr := c.postIngest(ctx, replica, body)
		switch {
		case perr != nil && rerr != nil:
			return fmt.Errorf("both copies failed: primary: %v; replica (%s): %v", perr, c.workers[replica], rerr)
		case perr != nil || rerr != nil:
			// One copy landed: the batch is durable and queryable; the
			// missing copy is a catch-up away, not a data loss.
			c.degraded.Add(1)
		}
		return nil
	})
}

// eachWorker runs fn for every worker concurrently and folds the workers it
// failed for into one *PartialError, nil when none failed.
func (c *Coordinator) eachWorker(ctx context.Context, op string, fn func(shard int) error) error {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for shard := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[shard] = fn(shard)
		}()
	}
	wg.Wait()
	var failed []*WorkerError
	for shard, err := range errs {
		if err != nil {
			failed = append(failed, &WorkerError{Worker: c.workers[shard], Shard: shard, Err: err})
		}
	}
	if len(failed) == 0 {
		return nil
	}
	c.failures.Add(uint64(len(failed)))
	return &PartialError{Op: op, Workers: len(c.workers), Contacted: len(c.workers), TraceID: obs.TraceID(ctx), Failed: failed}
}

// postIngest posts one shard's tagged batch to one worker, retrying once
// on a transient failure (transport error or 5xx status). The retry is safe
// because the tag makes the worker-side apply idempotent: a response lost
// after the worker applied the batch re-posts as a no-op.
func (c *Coordinator) postIngest(ctx context.Context, worker int, body []byte) error {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			c.ingestRetries.Add(1)
		}
		err = c.send(ctx, http.MethodPost, worker, "/ingest", body, BatchContentType)
		var se *StatusError
		if err == nil || ctx.Err() != nil || (errors.As(err, &se) && se.Code < 500) {
			return err
		}
	}
	return err
}

// Stats is a snapshot of the coordinator's scatter/gather counters.
type Stats struct {
	Workers        int
	Replicas       int
	Scans          uint64
	WorkerRequests uint64
	WorkersPruned  uint64
	WorkerFailures uint64
	IngestBatches  uint64
	// Failovers counts scans a replica served after the primary failed;
	// DegradedIngests counts shard batches that landed on only one of
	// their two copies; IngestRetries counts re-posted ingest requests.
	Failovers       uint64
	DegradedIngests uint64
	IngestRetries   uint64
}

// Stats returns the coordinator's cumulative counters. WorkersPruned counts
// workers eliminated before fan-out across all scans: WorkerRequests +
// WorkersPruned == Scans * Workers.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Workers:         len(c.workers),
		Replicas:        c.replicas,
		Scans:           c.scans.Load(),
		WorkerRequests:  c.requests.Load(),
		WorkersPruned:   c.pruned.Load(),
		WorkerFailures:  c.failures.Load(),
		IngestBatches:   c.ingests.Load(),
		Failovers:       c.failovers.Load(),
		DegradedIngests: c.degraded.Load(),
		IngestRetries:   c.ingestRetries.Load(),
	}
}

// gatherCursor concatenates the remote cursors in shard order, mirroring
// the in-process cluster's segment gather. A sub-cursor failure aborts the
// gather: remaining workers are canceled and the error surfaces as a
// *PartialError carrying every worker failure observed.
type gatherCursor struct {
	coord   *Coordinator
	cancel  context.CancelFunc
	cs      []storage.Cursor
	workers int
	cur     int
	limit   int
	emitted int
	span    *obs.Span // the scan's "gather" span; nil when untraced
	traceID string
	err     error
	done    bool
}

func (g *gatherCursor) Next(batch []storage.Match) int {
	if g.done || len(batch) == 0 {
		return 0
	}
	want := len(batch)
	if g.limit > 0 && g.limit-g.emitted < want {
		want = g.limit - g.emitted
	}
	for want > 0 && g.cur < len(g.cs) {
		n := g.cs[g.cur].Next(batch[:want])
		if n > 0 {
			g.emitted += n
			return n
		}
		if err := g.cs[g.cur].Err(); err != nil {
			g.finish(err)
			return 0
		}
		g.cur++
	}
	g.finish(nil)
	return 0
}

func (g *gatherCursor) Err() error { return g.err }

func (g *gatherCursor) Close() { g.finish(nil) }

// finish cancels outstanding worker requests, closes every sub-cursor, and
// folds any worker errors into a single typed partial-failure error.
func (g *gatherCursor) finish(err error) {
	if g.done {
		return
	}
	g.done = true
	g.cancel()
	var failed []*WorkerError
	collect := func(e error) {
		if we, ok := e.(*WorkerError); ok {
			failed = append(failed, we)
		}
	}
	collect(err)
	for _, sub := range g.cs {
		sub.Close()
		if suberr := sub.Err(); suberr != nil && suberr != err {
			collect(suberr)
		}
	}
	switch {
	case len(failed) > 0:
		g.coord.failures.Add(uint64(len(failed)))
		g.err = &PartialError{Op: "scan", Workers: g.workers, Contacted: len(g.cs), TraceID: g.traceID, Failed: failed}
	case err != nil:
		// Not a worker failure: context cancellation or an encode error.
		g.err = err
	}
	g.span.Add("rows", int64(g.emitted))
	g.span.Add("workers_contacted", int64(len(g.cs)))
	if g.err != nil {
		g.span.Set("error", g.err.Error())
	}
	g.span.End()
}
