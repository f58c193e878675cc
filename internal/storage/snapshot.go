package storage

import (
	"context"
	"slices"
	"sort"
	"sync"

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

// postingsInRange gathers posting-list positions for the candidate set,
// clipped to [lo, hi) and returned sorted so results keep temporal order.
func (p *partView) postingsInRange(subjCand, objCand map[types.EntityID]struct{}, fromSubject bool, lo, hi int) []int32 {
	var cand map[types.EntityID]struct{}
	var lists map[types.EntityID][]int32
	if fromSubject {
		cand, lists = subjCand, p.bySubject
	} else {
		cand, lists = objCand, p.byObject
	}
	var positions []int32
	for id := range cand {
		for _, pos := range lists[id] {
			if int(pos) >= lo && int(pos) < hi {
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
// the events present at acquisition, regardless of concurrent Ingest,
// AddEvent or AddEntity calls — the store's mutation path copies shared
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
	entityIdx map[entityKey][]types.EntityID
	parts     []*partView

	closeOnce sync.Once
}

// Snapshot freezes the store's current contents into an immutable view.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Out-of-order single-event appends defer their re-sort to here, so a
	// batch of AddEvents pays for one sort, not one per event.
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
// by parallel partition producers. Partition pruning and candidate-set
// resolution happen up front (cheap index work); the per-partition scans
// run on a bounded worker pool and stream matches through bounded channels,
// so no more than O(workers × batch) matches are in flight beyond what the
// consumer has accepted. Matches arrive in the store's canonical order —
// partitions ascending by (day, agent), temporal within a partition — the
// same order the old materializing path produced.
//
// Cancel ctx (or Close the cursor) to stop the producers early; a
// q.Limit > 0 stops them as soon as enough matches were handed out.
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

	// Count the cursor as live until its close hook runs. Every cursor
	// constructed below runs its onClose exactly once (guarded by each
	// cursor's own done/once state), on exhaustion, Close, or cancel alike.
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
	var span *obs.Span
	if !sn.opts.DisableScanSpans {
		span = obs.SpanFromContext(ctx)
	}
	if span != nil {
		before := sn.store.ScanStats()
		prev := onClose
		onClose = func() {
			after := sn.store.ScanStats()
			span.Add("blocks_considered", after.BlocksConsidered-before.BlocksConsidered)
			span.Add("blocks_skipped", after.BlocksSkipped-before.BlocksSkipped)
			span.Add("blocks_decoded", after.BlocksDecoded-before.BlocksDecoded)
			span.Add("blocks_filtered", after.BlocksFiltered-before.BlocksFiltered)
			span.Add("value_columns_decoded", after.ValueColumnsDecoded-before.ValueColumnsDecoded)
			span.Add("attr_zone_skips", after.AttrZoneSkips-before.AttrZoneSkips)
			span.Add("hot_batches", after.HotBatches-before.HotBatches)
			span.Add("dict_verdict_hits", after.DictVerdictHits-before.DictVerdictHits)
			span.Add("thaws", after.Thaws-before.Thaws)
			prev()
		}
	}

	var subjCand, objCand map[types.EntityID]struct{}
	if !q.ForceScan {
		subjCand = sn.candidateSet(q.SubjType, q.SubjPred, q.SubjAllowed)
		objCand = sn.candidateSet(q.ObjType, q.ObjPred, q.ObjAllowed)
	} else {
		// Even under ForceScan the scheduler-imposed allowed sets must be
		// honoured for correctness; only the index shortcuts are skipped.
		subjCand, objCand = q.SubjAllowed, q.ObjAllowed
	}
	if (subjCand != nil && len(subjCand) == 0) || (objCand != nil && len(objCand) == 0) {
		return newSliceCursor(nil, onClose)
	}

	parts := sn.selectPartitions(q)
	span.Add("partitions_scanned", int64(len(parts)))
	span.Add("partitions_pruned", int64(len(sn.parts)-len(parts)))
	if len(parts) == 0 {
		return newSliceCursor(nil, onClose)
	}

	// Partition pruning normally enforces the spatial constraint; when it
	// is disabled (ablation) the scan must filter agents itself.
	var agentSet map[int]struct{}
	if sn.opts.DisablePruning && len(q.Agents) > 0 {
		agentSet = make(map[int]struct{}, len(q.Agents))
		for _, a := range q.Agents {
			agentSet[a] = struct{}{}
		}
	}

	// A single surviving partition needs no producer pool — one async
	// goroutine scans it (Scan still returns immediately, so composed
	// siblings like per-day sub-scans and MPP segments stay parallel) and
	// materializing one partition's matches is what the pre-cursor store
	// did for every query. Limit still caps the scan.
	if len(parts) == 1 {
		p := parts[0]
		return newAsyncErrCursor(ctx, func(cctx context.Context) ([]Match, error) {
			var out []Match
			err := sn.scanPartition(cctx, p, q, subjCand, objCand, agentSet, func(m Match) bool {
				out = append(out, m)
				return q.Limit == 0 || len(out) < q.Limit
			})
			return out, err
		}, onClose)
	}

	cctx, cancel := context.WithCancel(ctx)
	c := &scanCursor{
		parent:  ctx,
		cancel:  cancel,
		chans:   make([]chan scanBatch, len(parts)),
		limit:   q.Limit,
		onClose: onClose,
	}
	for i := range c.chans {
		c.chans[i] = make(chan scanBatch, 2)
	}

	workers := sn.opts.workers()
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers < 1 {
		workers = 1
	}
	// Partitions are handed to workers in order, so the in-flight window is
	// always the next `workers` partitions the consumer will read — the
	// consumer drains the oldest in-flight partition while younger ones
	// compute, and backpressure on the younger channels cannot starve it.
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for i := range idx {
				sn.producePartition(cctx, parts[i], q, subjCand, objCand, agentSet, c.chans[i])
			}
		}()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(idx)
		for i := range parts {
			select {
			case idx <- i:
			case <-cctx.Done():
				return
			}
		}
	}()
	return c
}

// scanBatch is one hand-off from a partition producer to the consuming
// cursor: a batch of matches, or a terminal scan error.
type scanBatch struct {
	ms  []Match
	err error
}

// producePartition scans one partition and streams its matches, batched, to
// out. It always closes out, and aborts between batches (and every 1024
// scanned rows) when ctx is canceled. A scan error (cold-segment
// corruption) is sent as the final batch so the consumer fails the whole
// cursor rather than passing off a partial result as complete.
func (sn *Snapshot) producePartition(ctx context.Context, p *partView, q *DataQuery, subjCand, objCand map[types.EntityID]struct{}, agentSet map[int]struct{}, out chan<- scanBatch) {
	defer close(out)
	batch := make([]Match, 0, ScanBatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case out <- scanBatch{ms: batch}:
			batch = make([]Match, 0, ScanBatchSize)
			return true
		case <-ctx.Done():
			return false
		}
	}
	emitted := 0
	emit := func(m Match) bool {
		batch = append(batch, m)
		emitted++
		// The consumer enforces the exact global limit; producers only cap
		// their own partition (a correct upper bound on what any ordered
		// prefix can need from it).
		if q.Limit > 0 && emitted >= q.Limit {
			flush()
			return false
		}
		if len(batch) == ScanBatchSize {
			return flush()
		}
		return true
	}
	err := sn.scanPartition(ctx, p, q, subjCand, objCand, agentSet, emit)
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

// scanPartition matches a data query against one partition view, invoking
// emit for every match in temporal order; emit returning false stops the
// scan. The partition's cold (columnar) prefix streams first — its rows are
// strictly older than every hot event — then the hot range. When candidate
// entity sets are small, posting lists replace the range scans on both
// sides. The returned error is always cold-segment corruption; a canceled
// context is a silent stop (the cursor layer reports it).
func (sn *Snapshot) scanPartition(ctx context.Context, p *partView, q *DataQuery, subjCand, objCand map[types.EntityID]struct{}, agentSet map[int]struct{}, emit func(Match) bool) error {
	if agentSet != nil {
		if _, ok := agentSet[p.key.agent]; !ok {
			return nil
		}
	}

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
		if err := sn.scanCold(ctx, p, q, subjCand, objCand, wrap); err != nil {
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

	// Posting-list strategy: pick the smaller candidate set if one is
	// small enough that walking its postings beats scanning the range.
	usePostings, fromSubject := false, false
	if !sn.opts.DisableIndexes && !q.ForceScan {
		switch {
		case subjCand != nil && len(subjCand) <= postingThreshold &&
			(objCand == nil || len(subjCand) <= len(objCand)):
			usePostings, fromSubject = true, true
		case objCand != nil && len(objCand) <= postingThreshold:
			usePostings, fromSubject = true, false
		}
	}

	// Large enough hot ranges go through the partition's columnar shadow:
	// batch kernel plus dictionary verdict bitmaps instead of per-event
	// interface calls. The posting path already touches only candidate rows,
	// so it stays as is.
	if !q.ForceScan && !sn.opts.DisableHotColumnar && !usePostings && hi-lo >= hotShadowMinRows {
		if sn.scanHot(ctx, p, q, subjCand, objCand, lo, hi, emit) {
			return nil
		}
	}

	check := func(pos int) (Match, bool) {
		ev := &p.events[pos]
		if !q.Ops.Contains(ev.Op) {
			return Match{}, false
		}
		subj := sn.entities[ev.Subject]
		obj := sn.entities[ev.Object]
		if !entityPasses(subj, q.SubjType, q.SubjPred, subjCand) || !entityPasses(obj, q.ObjType, q.ObjPred, objCand) {
			return Match{}, false
		}
		if q.EvtPred != nil && !q.EvtPred.Eval(ev) {
			return Match{}, false
		}
		return Match{Event: ev, Subj: subj, Obj: obj}, true
	}

	if usePostings {
		positions := p.postingsInRange(subjCand, objCand, fromSubject, lo, hi)
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
// pattern's entity constraints, using the hash indexes where an exact-match
// key exists and falling back to a typed entity scan for wildcard patterns.
// It returns nil when the set cannot be bounded more cheaply than checking
// the predicate per event during the scan.
func (sn *Snapshot) candidateSet(t types.EntityType, p pred.Pred, allowed map[types.EntityID]struct{}) map[types.EntityID]struct{} {
	if allowed != nil {
		// Intersect the scheduler-imposed set with the predicate.
		out := make(map[types.EntityID]struct{}, len(allowed))
		for id := range allowed {
			e := sn.entities[id]
			if e == nil || (t != types.EntityInvalid && e.Type != t) {
				continue
			}
			if p == nil || p.Eval(e) {
				out[id] = struct{}{}
			}
		}
		return out
	}
	if p == nil || p.ConstraintCount() == 0 {
		return nil // unconstrained: cheapest to check type during scan
	}
	if !sn.opts.DisableIndexes {
		if set, ok := sn.probeIndex(t, p); ok {
			return set
		}
	}
	// Wildcard or non-indexed attribute: evaluate the predicate over the
	// typed entity table once, which is far smaller than the event log.
	out := make(map[types.EntityID]struct{})
	for _, id := range sn.byType[t] {
		if p.Eval(sn.entities[id]) {
			out[id] = struct{}{}
		}
	}
	return out
}

// probeIndex serves an exact-equality predicate from the entity hash index.
// The candidate set from the index is a superset; the full predicate is
// re-checked on each hit so composite predicates stay correct.
func (sn *Snapshot) probeIndex(t types.EntityType, p pred.Pred) (map[types.EntityID]struct{}, bool) {
	keys := pred.IndexableKeys(p)
	for _, k := range keys {
		if !attrIndexed(t, k.Attr) {
			continue
		}
		out := make(map[types.EntityID]struct{})
		for _, val := range k.Vals {
			for _, id := range sn.entityIdx[entityKey{typ: t, attr: k.Attr, val: val}] {
				if p.Eval(sn.entities[id]) {
					out[id] = struct{}{}
				}
			}
		}
		return out, true
	}
	return nil, false
}

// selectPartitions applies spatial and temporal partition pruning over the
// snapshot's ordered partition views.
func (sn *Snapshot) selectPartitions(q *DataQuery) []*partView {
	// An empty window (To <= From while bounded, including the To == 0
	// "half-built" form some wire queries carry) matches no instant; probing
	// DayIndex(To-1) for it would fabricate a day range ending at day -1.
	if q.Window.Empty() {
		return nil
	}
	if sn.opts.DisablePruning {
		return sn.parts
	}
	var agentSet map[int]struct{}
	if len(q.Agents) > 0 {
		agentSet = make(map[int]struct{}, len(q.Agents))
		for _, a := range q.Agents {
			agentSet[a] = struct{}{}
		}
	}
	// dayBounded is an explicit flag, not a sentinel day value: with floor
	// division, day indexes are negative for pre-epoch data, so no integer
	// can double as "unbounded".
	dayBounded := !q.Window.Unbounded()
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
	c.cancel()
	c.wg.Wait()
	if c.onClose != nil {
		c.onClose()
		c.onClose = nil
	}
}
