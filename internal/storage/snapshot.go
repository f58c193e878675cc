package storage

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aiql/internal/obs"
	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// partView is one partition as frozen into a snapshot: the event prefix
// visible at acquisition time plus the posting lists as they stood then.
// The referenced arrays are shared with the live store under the
// copy-on-write rules documented on Store — the store only ever appends
// past the captured lengths or replaces whole maps/arrays, so a view is
// immutable without holding any lock.
type partView struct {
	key       partKey
	events    []types.Event
	bySubject map[types.EntityID][]int32
	byObject  map[types.EntityID][]int32

	// host is the live partition the view was captured from — used only to
	// reach its columnar-shadow slot (hotcol.go), which carries its own
	// synchronization; everything else a scan needs is captured above.
	host *partition

	// cold is the partition's sealed columnar prefix as of acquisition:
	// every cold row is strictly older than every hot event above. The runs
	// are immutable; a concurrent thaw only appends to the hot array (past
	// the captured prefix) and clears the live partition's cold pointer —
	// this captured view stays self-consistent either way.
	cold    []*coldRun
	coldN   int
	coldErr error
}

// timeRange binary-searches the sorted visible prefix for the window bounds.
func (p *partView) timeRange(w timeutil.Window) (lo, hi int) {
	if w.Unbounded() {
		return 0, len(p.events)
	}
	lo = sort.Search(len(p.events), func(i int) bool { return p.events[i].Start >= w.From })
	hi = sort.Search(len(p.events), func(i int) bool { return p.events[i].Start >= w.To })
	return lo, hi
}

// postingsInRange gathers posting-list positions for the plan's posting
// candidate set, clipped to [lo, hi) and to events whose op the query
// accepts, and returned sorted so results keep temporal order. Filtering
// on the op before the sort keeps a candidate's many other events (a
// process's reads, when the pattern asks for its starts) out of it.
func (p *partView) postingsInRange(sp *scanPlan, lo, hi int) []int32 {
	lists := p.byObject
	if sp.fromSubject {
		lists = p.bySubject
	}
	ops := sp.q.Ops
	var positions []int32
	for id := range sp.postingCand() {
		for _, pos := range lists[id] {
			if int(pos) >= lo && int(pos) < hi && ops.Contains(p.events[pos].Op) {
				positions = append(positions, pos)
			}
		}
	}
	slices.Sort(positions)
	return positions
}

// Snapshot is an immutable, generation-stamped view of a Store. Acquisition
// is O(partitions): it copies the partition list and captures slice/map
// references; no event data moves. Queries against a snapshot see exactly
// the events present at acquisition, regardless of concurrent Ingest
// calls — the store's mutation path copies shared
// structures before changing them (see the COW rules in storage.go).
//
// A Snapshot must be Closed when no longer needed: while any snapshot is
// live the store pays copy-on-write costs for mutations; Close lets the
// store resume mutating in place. Reading a snapshot after Close is
// undefined. Close is idempotent. A Snapshot is safe for concurrent use by
// multiple readers (each Scan returns its own single-consumer cursor).
type Snapshot struct {
	store      *Store
	opts       Options
	gen        uint64
	eventCount int

	entities  map[types.EntityID]*types.Entity
	byType    map[types.EntityType][]types.EntityID
	entityIdx entityIndex
	parts     []*partView

	closeOnce sync.Once
}

// Snapshot freezes the store's current contents into an immutable view.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Partitions a segment install left dirty (installPartition) defer
	// their re-sort to here.
	s.sortDirtyLocked()
	snap := &Snapshot{
		store:      s,
		opts:       s.opts,
		gen:        s.generation,
		eventCount: s.eventCount,
		entities:   s.entities,
		byType:     s.byType,
		entityIdx:  s.entityIdx,
		parts:      make([]*partView, len(s.partList)),
	}
	for i, p := range s.partList {
		p.mapsShared = true
		p.eventsShared = true
		pv := &partView{
			key:       p.key,
			events:    p.events,
			bySubject: p.bySubject,
			byObject:  p.byObject,
			host:      p,
		}
		if p.cold != nil {
			pv.cold = p.cold.runs
			pv.coldN = p.cold.n
			pv.coldErr = p.cold.bad
		}
		snap.parts[i] = pv
	}
	s.metaShared = true
	s.liveSnaps++
	return snap
}

// Close releases the snapshot, allowing the store to stop copy-on-write
// for mutations once no snapshots remain live.
func (sn *Snapshot) Close() {
	if sn == nil {
		return
	}
	sn.closeOnce.Do(func() {
		sn.store.mu.Lock()
		sn.store.liveSnaps--
		sn.store.mu.Unlock()
	})
}

// Generation returns the store generation the snapshot was taken at.
// Results computed from this snapshot are valid cache entries for exactly
// this generation, no matter what the store ingests meanwhile.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// EventCount returns the number of events visible in the snapshot.
func (sn *Snapshot) EventCount() int { return sn.eventCount }

// PartitionCount returns the number of partitions visible in the snapshot.
func (sn *Snapshot) PartitionCount() int { return len(sn.parts) }

// Entity returns the entity with the given id as of the snapshot, or nil.
func (sn *Snapshot) Entity(id types.EntityID) *types.Entity { return sn.entities[id] }

// Run drains a full scan — the materializing convenience mirror of
// Store.Run for callers already holding a snapshot. Canceling ctx aborts
// the scan between batches.
func (sn *Snapshot) Run(ctx context.Context, q *DataQuery) []Match {
	c := sn.Scan(ctx, q)
	defer c.Close()
	return Drain(c)
}

// Scan executes a data query against the snapshot, returning a cursor fed
// by partition producers. Partition pruning and candidate-set resolution
// happen up front (cheap index work); the per-partition scans then run on
// up to Workers producers, each streaming into its partition's channel of
// two batches. A producer moves on to its next partition once the output
// of its current one fits that channel, so producers run ahead of the
// consumer by up to two batches per partition. Matches arrive in the
// store's canonical order — partitions ascending by (day, agent), temporal
// within a partition.
//
// Cancel ctx (or Close the cursor) to stop the producers early. With
// q.Limit > 0 the cursor hands out at most Limit matches, and producers
// claim no further partition once the partitions claimed so far have
// produced Limit matches.
func (sn *Snapshot) Scan(ctx context.Context, q *DataQuery) Cursor {
	return sn.scan(ctx, q, nil)
}

func (sn *Snapshot) scan(ctx context.Context, q *DataQuery, onClose func()) Cursor {
	if err := ctx.Err(); err != nil {
		if onClose != nil {
			onClose()
		}
		return NewErrCursor(err)
	}

	// Count the cursor as live until its close hook runs. The cursor runs
	// onClose exactly once (guarded by its done flag), on exhaustion, Close,
	// or cancel alike.
	sn.store.liveCursors.Add(1)
	inner := onClose
	onClose = func() {
		sn.store.liveCursors.Add(-1)
		if inner != nil {
			inner()
		}
	}

	// When the request carries a trace span, fold this scan's block traffic
	// into it as the delta of the store-wide counters over the cursor's
	// lifetime. The delta is approximate when scans run concurrently (the
	// counters are store-global), which is the documented trade for keeping
	// the per-block hot path free of per-scan bookkeeping.
	span := obs.SpanFromContext(ctx)
	if span != nil {
		before := sn.store.ScanStats()
		prev := onClose
		onClose = func() {
			after := sn.store.ScanStats()
			for i, c := range ScanCounters {
				span.Add(c.Name, after[i]-before[i])
			}
			prev()
		}
	}

	c := &scanCursor{parent: ctx, limit: q.Limit, onClose: onClose}
	sp := &scanPlan{q: q}
	if !q.ForceScan {
		sp.subjCand = sn.candidateSet(q.SubjType, q.SubjPred, q.SubjAllowed)
		sp.objCand = sn.candidateSet(q.ObjType, q.ObjPred, q.ObjAllowed)
	} else {
		// Even under ForceScan the scheduler-imposed allowed sets must be
		// honoured for correctness; only the index shortcuts are skipped.
		sp.subjCand, sp.objCand = q.SubjAllowed, q.ObjAllowed
	}
	if (sp.subjCand != nil && len(sp.subjCand) == 0) || (sp.objCand != nil && len(sp.objCand) == 0) {
		return c
	}

	parts := sn.selectPartitions(q)
	span.Add("partitions_scanned", int64(len(parts)))
	span.Add("partitions_pruned", int64(len(sn.parts)-len(parts)))
	if len(parts) == 0 {
		return c
	}

	// Partition pruning normally enforces the spatial constraint; when it
	// is disabled (ablation) the scan must filter agents itself.
	if sn.opts.DisablePruning && len(q.Agents) > 0 {
		sp.agents = make(map[int]struct{}, len(q.Agents))
		for _, a := range q.Agents {
			sp.agents[a] = struct{}{}
		}
	}

	// Posting-list strategy, hot and cold alike: pick the smaller candidate
	// set if one is small enough that walking its postings beats scanning
	// the range.
	if !sn.opts.DisableIndexes && !q.ForceScan {
		switch {
		case sp.subjCand != nil && len(sp.subjCand) <= postingThreshold &&
			(sp.objCand == nil || len(sp.subjCand) <= len(sp.objCand)):
			sp.usePostings, sp.fromSubject = true, true
		case sp.objCand != nil && len(sp.objCand) <= postingThreshold:
			sp.usePostings, sp.fromSubject = true, false
		}
	}

	// One producer serves a single partition or a small hot walk, which is
	// a few hundred rows; more would cost more to start than they save.
	// Cold partitions and larger walks decode blocks or touch enough rows
	// for parallel producers to pay (docs/STORAGE.md).
	workers := 1
	if !smallHotWalk(sp, parts) {
		workers = min(sn.opts.workers(), len(parts))
	}
	cctx, cancel := context.WithCancel(ctx)
	c.cancel = cancel
	// Two batches per partition let a producer whose partition's output
	// fits them move on before the consumer arrives: the run-ahead that
	// keeps later partitions computing while the consumer reads earlier ones.
	c.chans = make([]chan scanBatch, len(parts))
	for i := range c.chans {
		c.chans[i] = make(chan scanBatch, 2)
	}
	// Producers claim partitions in order, so the consumer's partition is
	// always claimed and backpressure on later channels cannot starve it.
	// Once the claimed prefix has produced Limit matches, the answer lies
	// inside it and no later partition is claimed.
	var next, produced atomic.Int64
	for w := 0; w < workers; w++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for cctx.Err() == nil && (c.limit == 0 || produced.Load() < int64(c.limit)) {
				i := int(next.Add(1) - 1)
				if i >= len(parts) {
					return
				}
				sn.producePartition(cctx, parts[i], sp, c.chans[i], &produced)
			}
		}()
	}
	return c
}

// scanBatch is one hand-off from a partition producer to the consuming
// cursor: a batch of matches, or a terminal scan error.
type scanBatch struct {
	ms  []Match
	err error
}

// firstBatchSize is the capacity of a posting walk's first batch in each
// partition: a narrow walk matches a handful of rows per partition, and a
// full ScanBatchSize batch for each would cost more than its matches.
const firstBatchSize = 16

// producePartition scans one partition and streams its matches, batched, to
// out, adding every batch handed off to produced. It always closes out, and
// aborts between batches (and every 1024 scanned rows) when ctx is
// canceled. A scan error (cold-segment corruption) is sent as the final
// batch so the consumer fails the whole cursor rather than passing off a
// partial result as complete.
func (sn *Snapshot) producePartition(ctx context.Context, p *partView, sp *scanPlan, out chan<- scanBatch, produced *atomic.Int64) {
	defer close(out)
	q := sp.q
	var batch []Match
	size := ScanBatchSize
	if sp.usePostings {
		size = firstBatchSize
	}
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case out <- scanBatch{ms: batch}:
			produced.Add(int64(len(batch)))
			batch, size = nil, ScanBatchSize
			return true
		case <-ctx.Done():
			return false
		}
	}
	emitted := 0
	emit := func(m Match) bool {
		if batch == nil {
			if q.Limit > 0 {
				size = min(size, q.Limit-emitted)
			}
			batch = make([]Match, 0, size)
		}
		batch = append(batch, m)
		emitted++
		// The consumer enforces the exact global limit; producers only cap
		// their own partition (a correct upper bound on what any ordered
		// prefix can need from it).
		if q.Limit > 0 && emitted >= q.Limit {
			flush()
			return false
		}
		if len(batch) == cap(batch) {
			return flush()
		}
		return true
	}
	err := sn.scanPartition(ctx, p, sp, emit)
	if err != nil {
		select {
		case out <- scanBatch{err: err}:
		case <-ctx.Done():
		}
		return
	}
	flush()
}

// postingThreshold is the candidate-set size below which walking posting
// lists beats scanning the time range, for hot and cold partitions alike.
const postingThreshold = 128

// smallHotWalk reports whether a scan walks posting lists over hot
// partitions only, touching at most postingThreshold (candidate, partition)
// lists in all. Such a walk is a handful of rows, and one producer serves
// it faster than several start; cold partitions and larger walks get
// Workers producers, whose parallelism pays for itself there
// (docs/STORAGE.md).
func smallHotWalk(sp *scanPlan, parts []*partView) bool {
	if !sp.usePostings || len(sp.postingCand())*len(parts) > postingThreshold {
		return false
	}
	for _, p := range parts {
		if len(p.cold) > 0 {
			return false
		}
	}
	return true
}

// scanPlan is what Snapshot.scan decides once per query and every partition
// scan of it reads.
type scanPlan struct {
	q *DataQuery
	// subjCand and objCand are the entity ids that can satisfy the
	// subject/object constraints; nil means unbounded (check per row).
	subjCand, objCand map[types.EntityID]struct{}
	// agents, when non-nil, is the spatial filter the scan applies itself
	// because partition pruning is disabled.
	agents map[int]struct{}
	// usePostings walks the posting lists of the smaller candidate set
	// (the subject's when fromSubject) instead of scanning the range.
	usePostings, fromSubject bool
}

// postingCand returns the candidate set the posting path walks.
func (sp *scanPlan) postingCand() map[types.EntityID]struct{} {
	if sp.fromSubject {
		return sp.subjCand
	}
	return sp.objCand
}

// scanPartition matches a data query against one partition view, invoking
// emit for every match in temporal order; emit returning false stops the
// scan. The partition's cold (columnar) prefix streams first — its rows are
// strictly older than every hot event — then the hot range. When candidate
// entity sets are small, posting lists replace the range scans on both
// sides. The returned error is always cold-segment corruption; a canceled
// context is a silent stop (the cursor layer reports it).
func (sn *Snapshot) scanPartition(ctx context.Context, p *partView, sp *scanPlan, emit func(Match) bool) error {
	if sp.agents != nil {
		if _, ok := sp.agents[p.key.agent]; !ok {
			return nil
		}
	}
	q := sp.q

	if len(p.cold) > 0 {
		if p.coldErr != nil {
			// A failed thaw already proved this partition's cold half
			// unreadable; fail closed instead of returning hot-only rows.
			return p.coldErr
		}
		stopped := false
		wrap := func(m Match) bool {
			if !emit(m) {
				stopped = true
				return false
			}
			return true
		}
		if err := sn.scanCold(ctx, p, sp, wrap); err != nil {
			return err
		}
		if stopped || ctx.Err() != nil {
			return nil
		}
	}

	lo, hi := p.timeRange(q.Window)
	if lo >= hi {
		return nil
	}

	// Hot ranges go through the partition's columnar shadow: batch kernel
	// plus dictionary verdict bitmaps instead of per-event interface calls.
	// Two walks test rows one at a time instead: a posting walk touches only
	// candidate rows, and ForceScan models an executor without AIQL's
	// entity pre-resolution, which the baselines must not outrun.
	if !q.ForceScan && !sp.usePostings {
		sn.scanHot(ctx, p, sp, lo, hi, emit)
		return nil
	}

	check := func(pos int) (Match, bool) {
		ev := &p.events[pos]
		if !q.Ops.Contains(ev.Op) {
			return Match{}, false
		}
		subj := sn.entities[ev.Subject]
		obj := sn.entities[ev.Object]
		if !entityPasses(subj, q.SubjType, q.SubjPred, sp.subjCand) || !entityPasses(obj, q.ObjType, q.ObjPred, sp.objCand) {
			return Match{}, false
		}
		if q.EvtPred != nil && !q.EvtPred.Eval(ev) {
			return Match{}, false
		}
		return Match{Event: ev, Subj: subj, Obj: obj}, true
	}

	if sp.usePostings {
		positions := p.postingsInRange(sp, lo, hi)
		for k, pos := range positions {
			if k&1023 == 0 && ctx.Err() != nil {
				return nil
			}
			if m, ok := check(int(pos)); ok && !emit(m) {
				return nil
			}
		}
		return nil
	}
	for pos := lo; pos < hi; pos++ {
		if (pos-lo)&1023 == 0 && ctx.Err() != nil {
			return nil
		}
		if m, ok := check(pos); ok && !emit(m) {
			return nil
		}
	}
	return nil
}

// candidateSet resolves the set of entity ids that can satisfy the
// pattern's entity constraints. In order it takes the scheduler's allowed
// set, an exact-match probe of the entity hash index, the index's value
// dictionary (wildcard, ordered and composite predicates over an indexed
// attribute), and last the typed entity table. It returns nil when the set
// cannot be bounded more cheaply than checking the predicate per event
// during the scan. Every predicate evaluation it spends counts as an
// entity verdict.
func (sn *Snapshot) candidateSet(t types.EntityType, p pred.Pred, allowed map[types.EntityID]struct{}) map[types.EntityID]struct{} {
	set, verdicts := sn.resolveCandidates(t, p, allowed)
	if verdicts > 0 {
		sn.store.scanStats[EntityVerdicts].Add(int64(verdicts))
	}
	return set
}

// resolveCandidates is candidateSet's body; it also returns the number of
// predicate evaluations spent.
func (sn *Snapshot) resolveCandidates(t types.EntityType, p pred.Pred, allowed map[types.EntityID]struct{}) (map[types.EntityID]struct{}, int) {
	if allowed != nil {
		// Intersect the scheduler-imposed set with the predicate.
		out := make(map[types.EntityID]struct{}, len(allowed))
		verdicts := 0
		for id := range allowed {
			e := sn.entities[id]
			if e == nil || (t != types.EntityInvalid && e.Type != t) {
				continue
			}
			if p != nil {
				verdicts++
				if !p.Eval(e) {
					continue
				}
			}
			out[id] = struct{}{}
		}
		return out, verdicts
	}
	if p == nil || p.ConstraintCount() == 0 {
		return nil, 0 // unconstrained: cheapest to check type during scan
	}
	if !sn.opts.DisableIndexes {
		if set, verdicts, ok := sn.probeIndex(t, p); ok {
			return set, verdicts
		}
		if set, verdicts, ok := sn.probeValues(t, p); ok {
			return set, verdicts
		}
	}
	// No indexed attribute bounds the predicate (agentid = "4", say):
	// evaluate it over the typed entity table once, which is far smaller
	// than the event log.
	out := make(map[types.EntityID]struct{})
	ids := sn.byType[t]
	for _, id := range ids {
		if p.Eval(sn.entities[id]) {
			out[id] = struct{}{}
		}
	}
	return out, len(ids)
}

// probeIndex serves an exact-equality predicate from the entity hash index.
// Of the predicate's indexable keys it probes the most selective — the one
// whose values' id lists are shortest in total. The candidate set from the
// index is a superset; the full predicate is re-checked on each hit so
// composite predicates stay correct.
func (sn *Snapshot) probeIndex(t types.EntityType, p pred.Pred) (map[types.EntityID]struct{}, int, bool) {
	var best *pred.IndexKey
	bestN := 0
	keys := pred.IndexableKeys(p)
	for i := range keys {
		k := &keys[i]
		if !attrIndexed(t, k.Attr) {
			continue
		}
		n := 0
		for _, val := range k.Vals {
			n += len(sn.entityIdx.ids[entityKey{typ: t, attr: k.Attr, val: val}])
		}
		if best == nil || n < bestN {
			best, bestN = k, n
		}
	}
	if best == nil {
		return nil, 0, false
	}
	out := make(map[types.EntityID]struct{}, bestN)
	for _, val := range best.Vals {
		for _, id := range sn.entityIdx.ids[entityKey{typ: t, attr: best.Attr, val: val}] {
			if p.Eval(sn.entities[id]) {
				out[id] = struct{}{}
			}
		}
	}
	return out, bestN, true
}

// probeValues serves a predicate that projects onto an indexed attribute
// (pred.Project) from the index's value dictionary: the projection is
// evaluated once per distinct value, and the full predicate re-checked on
// each entity under a passing value, as probeIndex does — unless the
// projection is the whole predicate, which the value's verdict then
// decides for every entity under it. Of several projecting attributes it
// takes the one with the fewest distinct values.
func (sn *Snapshot) probeValues(t types.EntityType, p pred.Pred) (map[types.EntityID]struct{}, int, bool) {
	var (
		proj pred.Pred
		attr string
		vals []string
	)
	for _, a := range indexedAttrs[t] {
		pa, ok := pred.Project(p, a)
		if !ok {
			continue
		}
		if vs := sn.entityIdx.vals[attrKey{typ: t, attr: a}]; proj == nil || len(vs) < len(vals) {
			proj, attr, vals = pa, a, vs
		}
	}
	if proj == nil {
		return nil, 0, false
	}
	exact := proj == p
	subj := &valueSubject{attr: attr}
	out := make(map[types.EntityID]struct{})
	verdicts := len(vals)
	for _, v := range vals {
		subj.val = v
		if !proj.Eval(subj) {
			continue
		}
		ids := sn.entityIdx.ids[entityKey{typ: t, attr: attr, val: v}]
		if exact {
			for _, id := range ids {
				out[id] = struct{}{}
			}
			continue
		}
		verdicts += len(ids)
		for _, id := range ids {
			if p.Eval(sn.entities[id]) {
				out[id] = struct{}{}
			}
		}
	}
	return out, verdicts, true
}

// valueSubject is a subject carrying one attribute, what probeValues
// evaluates a projection on. One is reused across a probe's values, so the
// probe allocates nothing per value.
type valueSubject struct{ attr, val string }

func (s *valueSubject) Attr(key string) (string, bool) {
	if key != s.attr {
		return "", false
	}
	return s.val, true
}

// selectPartitions applies spatial and temporal partition pruning, and the
// query's partition predicate, over the snapshot's ordered partition views.
// The predicate applies even with pruning disabled: it is part of the
// answer, not an optimization.
func (sn *Snapshot) selectPartitions(q *DataQuery) []*partView {
	// An empty window (To <= From while bounded, including the To == 0
	// "half-built" form some wire queries carry) matches no instant; probing
	// DayIndex(To-1) for it would fabricate a day range ending at day -1.
	if q.Window.Empty() {
		return nil
	}
	prune := !sn.opts.DisablePruning
	if !prune && q.Partition == nil {
		return sn.parts
	}
	var agentSet map[int]struct{}
	if prune && len(q.Agents) > 0 {
		agentSet = make(map[int]struct{}, len(q.Agents))
		for _, a := range q.Agents {
			agentSet[a] = struct{}{}
		}
	}
	// dayBounded is an explicit flag, not a sentinel day value: with floor
	// division, day indexes are negative for pre-epoch data, so no integer
	// can double as "unbounded".
	dayBounded := prune && !q.Window.Unbounded()
	var minDay, maxDay int
	if dayBounded {
		minDay = timeutil.DayIndex(q.Window.From)
		maxDay = timeutil.DayIndex(q.Window.To - 1)
	}
	var out []*partView
	for _, p := range sn.parts {
		if agentSet != nil {
			if _, ok := agentSet[p.key.agent]; !ok {
				continue
			}
		}
		if dayBounded && (p.key.day < minDay || p.key.day > maxDay) {
			continue
		}
		if q.Partition != nil && !q.Partition(p.key.agent, p.key.day) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// scanCursor is the consumer end of a snapshot scan: it walks the selected
// partitions in order, draining each partition's channel before moving to
// the next, so the stream order matches the materialized order exactly.
type scanCursor struct {
	parent  context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	chans   []chan scanBatch
	cur     int
	pending []Match
	limit   int
	emitted int
	err     error
	done    bool
	onClose func()
}

func (c *scanCursor) Next(batch []Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	// A canceled scan reports its error even if buffered batches remain —
	// partial results after cancellation would be mistaken for complete.
	if err := c.parent.Err(); err != nil {
		c.finish(err)
		return 0
	}
	n := 0
	for n < len(batch) {
		if c.limit > 0 && c.emitted >= c.limit {
			break
		}
		if len(c.pending) > 0 {
			k := len(batch) - n
			if len(c.pending) < k {
				k = len(c.pending)
			}
			if c.limit > 0 && c.limit-c.emitted < k {
				k = c.limit - c.emitted
			}
			copy(batch[n:n+k], c.pending[:k])
			c.pending = c.pending[k:]
			n += k
			c.emitted += k
			continue
		}
		if c.cur >= len(c.chans) {
			break
		}
		select {
		case b, ok := <-c.chans[c.cur]:
			if !ok {
				c.cur++
				continue
			}
			if b.err != nil {
				// A failed partition fails the whole scan: matches already
				// handed out are a prefix, but nothing after this point may
				// pass for a complete result.
				c.finish(b.err)
				return n
			}
			c.pending = b.ms
		case <-c.parent.Done():
			c.finish(c.parent.Err())
			return n
		}
	}
	if n == 0 {
		c.finish(nil)
	}
	return n
}

func (c *scanCursor) Err() error { return c.err }

func (c *scanCursor) Close() { c.finish(nil) }

// finish tears the scan down: cancel producers, wait for them to exit (they
// observe the cancellation at batch boundaries), then release the backing
// snapshot. Waiting before the release is what makes Close a safe point to
// drop the snapshot's copy-on-write protection.
func (c *scanCursor) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	if err != nil && c.err == nil {
		c.err = err
	}
	if c.cancel != nil { // nil when the scan selected no partition
		c.cancel()
		c.wg.Wait()
	}
	if c.onClose != nil {
		c.onClose()
		c.onClose = nil
	}
}
