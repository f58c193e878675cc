package storage

import (
	"context"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// Hot columnar shadows: the in-memory mirror of the segment block layout,
// giving hot partitions the same batch-at-a-time scan path cold runs get.
//
// A hotShadow is a lazily built columnar copy of a prefix of one
// partition's event array — per-attribute int64 columns, op bytes, and
// subject/object columns holding u32 indexes into a per-partition entity
// dictionary (first-seen order, so extension never reorders). It is pinned
// to the exact backing array it was built from: shadows are built only from
// snapshot-captured arrays, which the store has marked eventsShared, so any
// re-sort copies the array rather than reordering it in place — a shadow's
// source rows can therefore never change under it, only become unreachable
// from the live partition. Staleness is detected by base-pointer identity
// (and the base pointer keeps the old array alive, so the address can never
// be recycled while a shadow still references it); sortDirtyLocked and
// thawLocked additionally drop the shadow eagerly.
//
// Shadows grow in place: extending from n to n' writes only rows [n, n'),
// which no published reader indexes (readers hold the previous struct,
// whose row count is n), so builders and scanners need no common lock —
// builders serialize on partition.shadowMu and publish via an atomic
// pointer.
//
// The payoff is scanHot: instead of per-event interface calls through
// Pred.Eval and two entity-map lookups per row, entity predicates are
// evaluated once per referenced dictionary entry (rowFilter, shared with
// the cold scan), event predicates run through the vectorized kernel in
// 1024-row batches, and the per-row residue is an op-set test plus two bit
// probes.

// hotShadowChunk is the batch granularity of scanHot — one kernel
// invocation and one cancellation check per chunk, mirroring the cold
// path's block size.
const hotShadowChunk = 1024

// hotShadow is a columnar view over events[0:n] of one partition's backing
// array. All exported-to-reader state is immutable once published; slot is
// writer-owned (guarded by partition.shadowMu).
type hotShadow struct {
	base *types.Event // identity of (and liveness pin for) the source array
	n    int

	vals      [colAgents + 1][]int64 // indexed like blockCols.vals
	subj, obj []uint32
	ops       []types.Op

	dict []types.EntityID          // first-seen order; index = column value
	slot map[types.EntityID]uint32 // writer-owned
}

// shadowFor returns a shadow covering at least events[0:need] of the given
// snapshot-captured array, building or extending the partition's shadow as
// required. Returns nil only if events is empty.
func (p *partition) shadowFor(events []types.Event, need int) *hotShadow {
	if len(events) == 0 {
		return nil
	}
	if sh := p.shadow.Load(); sh != nil && sh.base == &events[0] && sh.n >= need {
		return sh
	}
	p.shadowMu.Lock()
	defer p.shadowMu.Unlock()
	cur := p.shadow.Load()
	if cur != nil && cur.base == &events[0] && cur.n >= need {
		return cur
	}
	var next *hotShadow
	if cur != nil && cur.base == &events[0] {
		next = cur.extend(events)
	} else {
		next = buildShadow(events)
	}
	p.shadow.Store(next)
	return next
}

// buildShadow constructs a fresh shadow over the whole captured prefix.
func buildShadow(events []types.Event) *hotShadow {
	sh := &hotShadow{
		base: &events[0],
		slot: make(map[types.EntityID]uint32),
	}
	return sh.extend(events)
}

// extend returns a shadow covering events[0:len(events)], reusing sh's
// column storage where capacity allows. Rows [sh.n, len(events)) are
// written into spare capacity that no published reader indexes; when a
// column must grow, the filled prefix is copied (concurrent readers of the
// old columns see only immutable data either way).
func (sh *hotShadow) extend(events []types.Event) *hotShadow {
	n := len(events)
	next := &hotShadow{
		base: sh.base,
		n:    n,
		dict: sh.dict,
		slot: sh.slot,
	}
	for k := range next.vals {
		next.vals[k] = grow(sh.vals[k], sh.n, n)
	}
	next.subj = grow(sh.subj, sh.n, n)
	next.obj = grow(sh.obj, sh.n, n)
	next.ops = grow(sh.ops, sh.n, n)
	v := &next.vals
	for i := sh.n; i < n; i++ {
		ev := &events[i]
		v[colStarts][i] = ev.Start
		v[colEnds][i] = ev.End
		v[colIDs][i] = int64(ev.ID)
		v[colSeqs][i] = int64(ev.Seq)
		v[colAmounts][i] = ev.Amount
		v[colFails][i] = int64(ev.FailCode)
		v[colAgents][i] = int64(ev.AgentID)
		next.subj[i] = next.slotFor(ev.Subject)
		next.obj[i] = next.slotFor(ev.Object)
		next.ops[i] = ev.Op
	}
	return next
}

func (sh *hotShadow) slotFor(id types.EntityID) uint32 {
	if s, ok := sh.slot[id]; ok {
		return s
	}
	s := uint32(len(sh.dict))
	sh.dict = append(sh.dict, id)
	sh.slot[id] = s
	return s
}

// grow returns col resliced to n rows, or a copy of its filled prefix with
// headroom when its capacity is short.
func grow[T any](col []T, filled, n int) []T {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]T, n, 2*n)
	copy(grown, col[:filled])
	return grown
}

// shadowChunk adapts one row range of a shadow to pred.ColumnSource for the
// vectorized kernel.
type shadowChunk struct {
	sh     *hotShadow
	lo, hi int
}

// NumRows implements pred.ColumnSource.
func (c *shadowChunk) NumRows() int { return c.hi - c.lo }

// Int64Column implements pred.ColumnSource.
func (c *shadowChunk) Int64Column(attr string) ([]int64, bool) {
	k, ok := valueCol(attr)
	if !ok {
		return nil, false
	}
	return c.sh.vals[k][c.lo:c.hi], true
}

// OpColumn implements pred.ColumnSource.
func (c *shadowChunk) OpColumn() ([]types.Op, bool) { return c.sh.ops[c.lo:c.hi], true }

// dictVerdicts answers one side's entity half of the data query
// (DataQuery.AdmitsSubject or AdmitsObject) once per dictionary entry:
// entities are immutable, so a verdict cannot change within a scan, and
// rows pay a bit probe instead of a map lookup and a predicate call.
type dictVerdicts struct {
	admits     func(q *DataQuery, e *types.Entity, cand map[types.EntityID]struct{}) bool
	cand       map[types.EntityID]struct{}
	seen, pass pred.Bitmap
}

// rowFilter is the row test every columnar scan runs — hot shadow chunks and
// cold blocks alike: the op set, then the subject and object verdicts of the
// row's dictionary entries. ents holds the resolved entity of every entry a
// verdict was asked about, so matching rows need no map lookup either.
type rowFilter struct {
	q         *DataQuery
	subj, obj dictVerdicts
	dict      []types.EntityID
	entities  map[types.EntityID]*types.Entity
	ents      []*types.Entity
}

// newRowFilter builds the filter of a scan over one dictionary (a hot
// shadow's, or a cold run's).
func (sn *Snapshot) newRowFilter(sp *scanPlan, dict []types.EntityID) rowFilter {
	nd := len(dict)
	return rowFilter{
		q:        sp.q,
		subj:     dictVerdicts{admits: (*DataQuery).AdmitsSubject, cand: sp.subjCand, seen: pred.NewBitmap(nd), pass: pred.NewBitmap(nd)},
		obj:      dictVerdicts{admits: (*DataQuery).AdmitsObject, cand: sp.objCand, seen: pred.NewBitmap(nd), pass: pred.NewBitmap(nd)},
		dict:     dict,
		entities: sn.entities,
		ents:     make([]*types.Entity, nd),
	}
}

// verdict returns v's answer for dictionary entry di, computing it on first
// sight.
func (f *rowFilter) verdict(v *dictVerdicts, di uint32) bool {
	w, bit := di/64, uint64(1)<<(di%64)
	if v.seen[w]&bit == 0 {
		v.seen[w] |= bit
		e := f.ents[di]
		if e == nil {
			e = f.entities[f.dict[di]]
			f.ents[di] = e
		}
		if v.admits(f.q, e, v.cand) {
			v.pass[w] |= bit
		}
	}
	return v.pass[w]&bit != 0
}

// passes reports whether a row with the given operation and subject/object
// dictionary indexes survives the filter.
func (f *rowFilter) passes(op types.Op, sdi, odi uint32) bool {
	return f.q.Ops.Contains(op) && f.verdict(&f.subj, sdi) && f.verdict(&f.obj, odi)
}

// scanHot scans rows [lo, hi) of a hot partition through its columnar
// shadow: entity predicates collapse to per-dictionary verdict bitmaps,
// event predicates run through the vectorized kernel per chunk, and each
// row costs an op-set test plus two bit probes. lo < hi.
func (sn *Snapshot) scanHot(ctx context.Context, p *partView, sp *scanPlan, lo, hi int, emit func(Match) bool) {
	sh := p.host.shadowFor(p.events, hi)
	stats, q := &sn.store.scanStats, sp.q

	f := sn.newRowFilter(sp, sh.dict)
	stats[DictVerdictHits].Add(int64(hi - lo))

	var sel pred.Bitmap
	if q.EvtPred != nil {
		sel = pred.NewBitmap(hotShadowChunk)
	}
	for clo := lo; clo < hi; clo += hotShadowChunk {
		chi := clo + hotShadowChunk
		if chi > hi {
			chi = hi
		}
		if ctx.Err() != nil {
			return
		}
		stats[HotBatches].Add(1)
		evtVec := false
		if q.EvtPred != nil {
			chunk := shadowChunk{sh: sh, lo: clo, hi: chi}
			// BatchEval requires out sized exactly to the chunk's rows.
			evtVec = pred.BatchEval(q.EvtPred, &chunk, sel[:(chi-clo+63)/64])
		}
		for i := clo; i < chi; i++ {
			if evtVec && !sel.Get(i-clo) {
				continue
			}
			sdi, odi := sh.subj[i], sh.obj[i]
			if !f.passes(sh.ops[i], sdi, odi) {
				continue
			}
			ev := &p.events[i]
			if q.EvtPred != nil && !evtVec && !q.EvtPred.Eval(ev) {
				continue
			}
			if !emit(Match{Event: ev, Subj: f.ents[sdi], Obj: f.ents[odi]}) {
				return
			}
		}
	}
}
