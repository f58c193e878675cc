package mpp

import (
	"sort"

	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Shard returns the shard index (0..n-1) that holds events of the given
// (agent, day) under this placement. It is the single definition of the
// data-distribution function: the in-process Cluster, the networked
// coordinator's scatter ingest, and the coordinator's worker pruning all
// call it, so placement and pruning can never disagree.
//
// ArrivalOrder has no content-derived home shard; Shard returns -1 and
// callers round-robin instead.
func (p Placement) Shard(agentID, day, n int) int {
	if p == ArrivalOrder || n <= 0 {
		return -1
	}
	seg := (agentID*31 + day) % n
	if seg < 0 {
		seg += n
	}
	return seg
}

// HomePartitions returns the partition predicate of logical shard shard
// over n workers under the semantics-aware placement: true for the
// (agent, day) partitions homed there. A replicated worker's store also
// holds its neighbour shard's copy; a /scan leg and a standing rule's
// backfill both read only the home shard through this predicate, so no
// event is read twice across the cluster.
func HomePartitions(shard, n int) func(agent, day int) bool {
	return func(agent, day int) bool { return SemanticsAware.Shard(agent, day, n) == shard }
}

// Replica returns the worker index holding the replica copy of a logical
// shard under R=2 replication: the next worker in ring order. It is the
// single definition of replica placement — the coordinator's dual-write
// ingest, the scan failover order, and a recovering worker's catch-up peer
// selection all derive from it, so the two copy holders of a shard can
// never disagree. Meaningless (-1) under ArrivalOrder, which has no
// content-derived home shard to replicate, or with fewer than two workers.
func (p Placement) Replica(shard, n int) int {
	if p == ArrivalOrder || n < 2 || shard < 0 || shard >= n {
		return -1
	}
	return (shard + 1) % n
}

// Scatter splits events into n shard slices: each event goes to its home
// shard (Shard), or round-robin when the placement has none
// (ArrivalOrder). The in-process Cluster and the networked coordinator
// both ingest through this one function, so the fallback convention can
// never diverge between them.
//
// offset rotates where the round-robin starts. A caller ingesting one
// batch passes 0; a caller ingesting a stream of batches passes its
// running event count, otherwise every small batch would restart at shard
// 0 and pile streamed events onto one node. Home-shard placement ignores
// it.
func (p Placement) Scatter(events []types.Event, n int, offset uint64) [][]types.Event {
	shards := make([][]types.Event, n)
	for i := range events {
		ev := &events[i]
		seg := p.Shard(ev.AgentID, timeutil.DayIndex(ev.Start), n)
		if seg < 0 {
			seg = int((offset + uint64(i)) % uint64(n))
		}
		shards[seg] = append(shards[seg], *ev)
	}
	return shards
}

// maxPruneDays bounds the day enumeration when translating a temporal
// constraint into shard indexes. Half-unbounded pushdown windows span ~1e13
// days; enumerating them would be slower than just asking every shard, and
// past a year of days the shard set is all of them anyway.
const maxPruneDays = 366

// Shards returns the sorted shard indexes that can hold events matching q
// under this placement across n shards, or nil meaning "all shards must be
// asked". Elimination requires both a spatial constraint (q.Agents) and a
// bounded temporal one (q.Window): the shard of an event is a function of
// its (agent, day), so an unconstrained dimension makes every shard a
// candidate. This is the same segment-elimination logic the local store
// applies per partition, lifted to whole shards.
func (p Placement) Shards(n int, q *storage.DataQuery) []int {
	if p == ArrivalOrder || n <= 0 {
		return nil
	}
	if q.Window.Empty() {
		// An empty window matches no event anywhere; DayIndex(To-1) on it
		// would invent a day range. Non-nil and empty: no shard qualifies.
		return []int{}
	}
	if len(q.Agents) == 0 || q.Window.Unbounded() {
		return nil
	}
	minDay := timeutil.DayIndex(q.Window.From)
	maxDay := timeutil.DayIndex(q.Window.To - 1)
	if maxDay < minDay || maxDay-minDay >= maxPruneDays {
		return nil
	}
	set := make(map[int]struct{})
	for _, agent := range q.Agents {
		for day := minDay; day <= maxDay; day++ {
			set[p.Shard(agent, day, n)] = struct{}{}
			if len(set) == n {
				return nil // every shard is a candidate; no elimination
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Targets resolves Shards' nil-means-all convention into a concrete shard
// list: the scatter paths of both cluster tiers call this one helper, so
// "which shards does this query touch" has a single definition.
func (p Placement) Targets(n int, q *storage.DataQuery) []int {
	if targets := p.Shards(n, q); targets != nil {
		return targets
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
