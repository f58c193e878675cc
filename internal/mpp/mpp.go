// Package mpp emulates the paper's Greenplum deployment: an MPP database of
// N segment nodes, each holding a shard of the event data and scanned in
// parallel (paper Sec. 3.2 "Hypertable" and Sec. 6.3.3).
//
// The experiment in paper Fig. 7 varies two things at once: the placement
// policy — Greenplum's default distributes events by arrival order, which
// is arbitrary, while AIQL's semantics-aware model distributes by the
// (agent, day) spatial/temporal key — and the scheduling (Greenplum runs
// the one-big-join SQL, AIQL runs Algorithm 1 on top). This package
// provides both placements over identical segment stores; the bench
// harness pairs them with the corresponding engine strategies.
package mpp

import (
	"context"
	"sync"
	"sync/atomic"

	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// Placement selects the event distribution policy.
type Placement uint8

const (
	// ArrivalOrder round-robins events across segments in ingest order —
	// Greenplum's default, arbitrary with respect to query semantics.
	ArrivalOrder Placement = iota
	// SemanticsAware hashes events by (agent, day), AIQL's data model, so
	// each segment holds whole spatial/temporal partitions and spatial or
	// temporal constraints eliminate entire segments.
	SemanticsAware
)

func (p Placement) String() string {
	if p == ArrivalOrder {
		return "arrival-order"
	}
	return "semantics-aware"
}

// Cluster is a set of segment stores behind a scatter/gather Run.
type Cluster struct {
	placement Placement
	segs      []*storage.Store

	scans              atomic.Uint64
	segmentsScanned    atomic.Uint64
	segmentsEliminated atomic.Uint64
}

// Stats is the cluster's partition-elimination accounting: how many
// scatter/gather scans ran, and how many segment nodes they touched versus
// proved empty by placement.
type Stats struct {
	Scans              uint64
	SegmentsScanned    uint64
	SegmentsEliminated uint64
}

// Stats returns the cluster's cumulative elimination counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Scans:              c.scans.Load(),
		SegmentsScanned:    c.segmentsScanned.Load(),
		SegmentsEliminated: c.segmentsEliminated.Load(),
	}
}

// New creates a cluster of n segments (the paper's deployment used 5).
func New(n int, placement Placement, segOpts storage.Options) *Cluster {
	if n <= 0 {
		n = 5
	}
	c := &Cluster{placement: placement}
	for i := 0; i < n; i++ {
		c.segs = append(c.segs, storage.New(segOpts))
	}
	return c
}

// Segments returns the number of segment nodes.
func (c *Cluster) Segments() int { return len(c.segs) }

// Placement returns the cluster's distribution policy.
func (c *Cluster) Placement() Placement { return c.placement }

// Ingest distributes a dataset across the segments. Entities are
// dimension-table-like and replicated to every segment, matching how MPP
// systems broadcast small dimension tables.
func (c *Cluster) Ingest(d *types.Dataset) {
	shards := c.placement.Scatter(d.Events, len(c.segs), 0)
	var wg sync.WaitGroup
	for i := range c.segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.segs[i].Ingest(types.NewDataset(d.Entities, shards[i]))
		}(i)
	}
	wg.Wait()
}

// EventCount returns the total number of events across segments.
func (c *Cluster) EventCount() int {
	total := 0
	for _, s := range c.segs {
		total += s.EventCount()
	}
	return total
}

// Scan implements the engine Backend: the data query is scattered to the
// candidate segments and the partial streams gathered in segment order.
// Each segment scan snapshots its local store and spawns its own partition
// producers, so all segments search in parallel from the moment Scan
// returns, with bounded channels applying backpressure until the consumer
// reaches them. Under SemanticsAware placement, segments that the query's
// spatial/temporal constraints prove empty (Placement.Shards) are never
// scanned at all, and the surviving segments prune their local partitions
// further; under ArrivalOrder every segment holds a slice of every
// partition and must search.
func (c *Cluster) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	targets := c.placement.Targets(len(c.segs), q)
	c.scans.Add(1)
	c.segmentsScanned.Add(uint64(len(targets)))
	c.segmentsEliminated.Add(uint64(len(c.segs) - len(targets)))
	// Segment elimination lands on the request's scan span; the per-segment
	// stores fold their block counters into the same span via ctx.
	if span := obs.SpanFromContext(ctx); span != nil {
		span.Add("segments_scanned", int64(len(targets)))
		span.Add("segments_eliminated", int64(len(c.segs)-len(targets)))
	}
	cs := make([]storage.Cursor, len(targets))
	for i, seg := range targets {
		cs[i] = c.segs[seg].Scan(ctx, q)
	}
	return storage.NewMultiCursor(q.Limit, cs...)
}

// Run is the materializing adapter over Scan. Canceling ctx aborts the
// per-segment scans between batches.
func (c *Cluster) Run(ctx context.Context, q *storage.DataQuery) []storage.Match {
	cur := c.Scan(ctx, q)
	defer cur.Close()
	return storage.Drain(cur)
}
