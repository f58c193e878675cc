package storage

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Cold partitions: a partition whose sealed history lives in mmap'ed
// columnar (v2/v3) segments instead of decoded []Event arrays. A coldRun is
// one segment partition; a partition's cold prefix is an ordered list of
// runs that are strictly older than every hot (in-memory) event in the
// partition:
//
//	run[0] < run[1] < … < run[k] < hot events        (by (Start, Seq))
//
// The invariant is maintained by construction — runs install only onto
// empty or colder partitions, and any arrival that would violate it (a hot
// append at or before the cold maximum, an overlapping run, a segment load
// racing WAL replay) triggers a thaw: the cold rows decode into the normal
// hot representation and the partition continues as a plain mutable one.
// Scans therefore stream the cold runs first and the hot events after, and
// temporal order falls out for free.
//
// Cold rows stay encoded until a query proves it needs them: zone maps
// prune blocks by time window, operation set, and dictionary id range; a
// surviving block is filtered on its bit-packed op and dictionary-index
// columns first, inflates only the value columns the window edge and the
// event predicate read, and only actual matches decode the rest and
// materialize Events (see scanCold).

// coldRun is one sealed v2 segment partition serving as part of a
// partition's cold prefix.
type coldRun struct {
	sf *segmentV2File
	pi *segV2Part
}

func (r *coldRun) meta() (*segV2Meta, error) { return r.sf.loadMeta(r.pi) }

// decodeAll fully decodes a run into the hot representation: events in
// order plus posting lists, ready for installPartition or a thaw merge.
func (r *coldRun) decodeAll() ([]types.Event, map[types.EntityID][]int32, map[types.EntityID][]int32, error) {
	m, err := r.meta()
	if err != nil {
		return nil, nil, nil, err
	}
	events := make([]types.Event, 0, r.pi.nEvents)
	var cols blockCols
	rowBase := 0
	for b := range m.zones {
		if err := r.sf.openBlock(r.pi, m, b, rowBase, &cols); err != nil {
			return nil, nil, nil, err
		}
		if err := cols.need(allStoredCols); err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < cols.n; i++ {
			var ev types.Event
			if _, _, err := cols.event(i, m, &ev); err != nil {
				return nil, nil, nil, err
			}
			events = append(events, ev)
		}
		rowBase += cols.n
	}
	bySubject := make(map[types.EntityID][]int32, len(m.dict))
	byObject := make(map[types.EntityID][]int32, len(m.dict))
	for di, id := range m.dict {
		if ps := m.subjectPostings(di); len(ps) > 0 {
			list := make([]int32, len(ps))
			for i, p := range ps {
				list[i] = int32(p)
			}
			bySubject[id] = list
		}
		if ps := m.objectPostings(di); len(ps) > 0 {
			list := make([]int32, len(ps))
			for i, p := range ps {
				list[i] = int32(p)
			}
			byObject[id] = list
		}
	}
	return events, bySubject, byObject, nil
}

// coldPart is a partition's cold prefix: ascending, non-overlapping runs.
type coldPart struct {
	runs     []*coldRun
	n        int   // total cold rows
	maxStart int64 // max event start across runs (last run's maximum)
	// bad latches a decode failure from a thaw attempt: the partition can
	// no longer guarantee temporal order between its cold and hot halves,
	// so scans over it fail closed with this error.
	bad error
}

// installColdRun registers one sealed v2 partition with the store. The fast
// path is a pointer hand-off — no event decoded. When the cold invariant
// cannot hold (the partition already has hot events, or the run overlaps
// the existing cold prefix), the run decodes and installs through the
// normal merge path instead.
func (s *Store) installColdRun(sf *segmentV2File, pi *segV2Part) error {
	run := &coldRun{sf: sf, pi: pi}
	s.mu.Lock()
	p, ok := s.parts[pi.key]
	if !ok {
		p = &partition{
			key:       pi.key,
			bySubject: make(map[types.EntityID][]int32),
			byObject:  make(map[types.EntityID][]int32),
			cold: &coldPart{
				runs:     []*coldRun{run},
				n:        pi.nEvents,
				maxStart: pi.maxStart,
			},
		}
		s.parts[pi.key] = p
		s.insertPartLocked(p)
		s.eventCount += pi.nEvents
		s.mu.Unlock()
		return nil
	}
	if len(p.events) == 0 && p.cold != nil && p.cold.bad == nil && pi.minStart > p.cold.maxStart {
		// Runs arrive in firstSeq order, so a later run extending the cold
		// prefix just appends. Snapshots captured the runs slice by value;
		// the append is invisible to them (tail-append rule).
		p.cold.runs = append(p.cold.runs, run)
		p.cold.n += pi.nEvents
		p.cold.maxStart = pi.maxStart
		s.eventCount += pi.nEvents
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	// Conflict: fall back to the eager path (decode outside the lock).
	events, bySubject, byObject, err := run.decodeAll()
	if err != nil {
		return err
	}
	s.installPartition(pi.key, events, bySubject, byObject)
	return nil
}

// thawLocked decodes a partition's cold runs into the hot representation
// and merges them, after which the partition behaves as if every event had
// arrived through normal ingest. Called under s.mu when a mutation is about
// to violate the cold-before-hot invariant. On decode failure the error is
// latched: the partition's data is still safe on disk, but queries over it
// fail closed until the store reopens.
//
// aiql:locked mu
func (s *Store) thawLocked(p *partition) {
	cold := p.cold
	if cold == nil || cold.bad != nil {
		return
	}
	var all []types.Event
	for _, run := range cold.runs {
		events, _, _, err := run.decodeAll()
		if err != nil {
			cold.bad = err
			if s.coldErr == nil {
				s.coldErr = err
			}
			return
		}
		all = append(all, events...)
	}
	p.cold = nil
	p.shadow.Store(nil)
	s.cowPartLocked(p)
	for i := range all {
		ev := &all[i]
		pos := int32(len(p.events))
		if !p.dirty && pos > 0 && eventLess(ev, &p.events[pos-1]) {
			p.dirty = true
		}
		p.events = append(p.events, *ev)
		p.bySubject[ev.Subject] = append(p.bySubject[ev.Subject], pos)
		p.byObject[ev.Object] = append(p.byObject[ev.Object], pos)
	}
	// Cold rows already counted in eventCount at install; they only moved.
	s.scanStats.thaws.Add(1)
}

// ColdError reports a latched cold-decode failure (nil when healthy). The
// persistent store surfaces it on the ingest path so damage discovered
// during a thaw is not silent.
func (s *Store) ColdError() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coldErr
}

// eventArena materializes matched cold rows in fixed-size chunks so the
// *types.Event pointers handed to consumers stay valid for the life of the
// result — and non-matching rows never materialize at all.
type eventArena struct {
	chunk []types.Event
}

func (a *eventArena) put(ev types.Event) *types.Event {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]types.Event, 0, ScanBatchSize)
	}
	a.chunk = append(a.chunk, ev)
	return &a.chunk[len(a.chunk)-1]
}

// dictIndexSet maps a candidate entity-id set into sorted dictionary
// indexes of one run; ids absent from the dictionary drop out. Returns
// (nil, false) when the set is unbounded (nil) or too large to be worth
// mapping.
func dictIndexSet(cand map[types.EntityID]struct{}, m *segV2Meta) ([]uint32, bool) {
	const mapLimit = 1024
	if cand == nil || len(cand) > mapLimit {
		return nil, false
	}
	idx := make([]uint32, 0, len(cand))
	for id := range cand {
		if di := m.dictIndex(id); di >= 0 {
			idx = append(idx, uint32(di))
		}
	}
	slices.Sort(idx)
	return idx, true
}

// anyInRange reports whether the sorted index set intersects [lo, hi].
func anyInRange(idx []uint32, lo, hi uint32) bool {
	i := sort.Search(len(idx), func(i int) bool { return idx[i] >= lo })
	return i < len(idx) && idx[i] <= hi
}

// keepRange clears every bit of b outside rows [lo, hi).
func keepRange(b pred.Bitmap, lo, hi int) {
	for w := range b {
		wlo, whi := w*64, w*64+64
		if whi <= lo || wlo >= hi {
			b[w] = 0
			continue
		}
		if lo > wlo {
			b[w] &= ^uint64(0) << (lo - wlo)
		}
		if hi < whi {
			b[w] &= ^uint64(0) >> (whi - hi)
		}
	}
}

// coldScan is what one scanCold call threads through its blocks: the query,
// the scan's scratch (one open block, the selection bitmaps, the arena that
// matched rows materialize into) and the current run's metadata and row
// filter.
type coldScan struct {
	sn       *Snapshot
	q        *DataQuery
	subjCand map[types.EntityID]struct{}
	objCand  map[types.EntityID]struct{}

	cols        blockCols
	sel, evtSel pred.Bitmap
	survivors   bool // some row of the open block is marked in sel
	arena       eventArena

	m *segV2Meta
	f rowFilter // over m.dict, built when the run's first block opens
}

// open reads block b of run (first row rowBase) into s.cols — checksum and
// decompression, no column decoded — and clears the selection.
func (s *coldScan) open(run *coldRun, b, rowBase int) error {
	z, stats := &s.m.zones[b], &s.sn.store.scanStats
	stats.blocksDecoded.Add(1)
	if run.sf.version >= 3 {
		stats.compressedBytesRead.Add(int64(z.dataLen))
		stats.compressedBytesDecode.Add(int64(z.rawLen))
	}
	if err := run.sf.openBlock(run.pi, s.m, b, rowBase, &s.cols); err != nil {
		return err
	}
	if s.f.ents == nil {
		s.f = s.sn.newRowFilter(s.q, s.subjCand, s.objCand, s.m.dict)
	}
	s.sel = s.sel[:(z.count+63)/64]
	s.sel.Reset()
	s.survivors = false
	return nil
}

// mark selects row i of the open block, whose operation is op, if it passes
// the row filter, reading its dictionary indexes in place.
func (s *coldScan) mark(i int, op types.Op) error {
	if !s.f.ops.Contains(op) {
		return nil // spare the probes
	}
	c := &s.cols
	sdi, ok := c.subj.at(i)
	if !ok {
		return c.corrupt("row %d: out-of-range dictionary index %d", i, sdi)
	}
	odi, ok := c.obj.at(i)
	if !ok {
		return c.corrupt("row %d: out-of-range dictionary index %d", i, odi)
	}
	if s.f.passes(op, sdi, odi) {
		s.sel.Set(i)
		s.survivors = true
	}
	return nil
}

// finish emits the matches among the rows mark selected in the open block,
// decoding value columns only as far as each step needs them: none when no
// row was selected, starts when the zone straddles a window edge, the
// columns the event predicate reads when it vectorizes, and everything
// once a row has passed every test. more is false when emit asked to stop.
func (s *coldScan) finish(emit func(Match) bool) (more bool, err error) {
	stats := &s.sn.store.scanStats
	if !s.survivors {
		stats.blocksFiltered.Add(1)
		return true, nil
	}
	c, q, sel := &s.cols, s.q, s.sel
	n, z := c.n, c.z
	defer func() {
		stats.valueColumnsDecoded.Add(int64(bits.OnesCount8(c.have & allStoredCols)))
	}()
	if !q.Window.Unbounded() && (z.minStart < q.Window.From || z.maxStart >= q.Window.To) {
		if err := c.need(1 << colStarts); err != nil {
			return false, err
		}
		// Starts are sorted within a block: clip the row range once instead
		// of testing every row.
		starts := c.vals[colStarts][:n]
		rlo := sort.Search(n, func(i int) bool { return starts[i] >= q.Window.From })
		rhi := sort.Search(n, func(i int) bool { return starts[i] >= q.Window.To })
		keepRange(sel, rlo, rhi)
		if sel.Count(n) == 0 {
			return true, nil
		}
		c.clip(rlo, rhi)
	}
	evtVec := false
	if q.EvtPred != nil && !q.ForceScan {
		if s.evtSel == nil {
			s.evtSel = pred.NewBitmap(segV2BlockRows)
		}
		// The predicate sees the clipped rows as rows 0…: its verdict for
		// row i is bit i-c.lo.
		evtSel := s.evtSel[:(c.NumRows()+63)/64]
		evtVec = pred.BatchEval(q.EvtPred, c, evtSel)
		if c.err != nil {
			return false, c.err
		}
		if evtVec {
			survivors := false
			sel.ForEach(n, func(i int) bool {
				if evtSel.Get(i - c.lo) {
					survivors = true
				} else {
					sel[i/64] &^= 1 << (i % 64)
				}
				return true
			})
			if !survivors {
				return true, nil
			}
		}
	}
	// Only the survivors materialize: nothing before the first or after the
	// last of them needs decoding (short of the delta chains' prefixes).
	first, last := 0, len(sel)-1
	for sel[first] == 0 {
		first++
	}
	for sel[last] == 0 {
		last--
	}
	c.clip(first*64+bits.TrailingZeros64(sel[first]), last*64+bits.Len64(sel[last]))
	if err := c.need(allStoredCols); err != nil {
		return false, err
	}
	more = sel.ForEach(n, func(i int) bool {
		var ev types.Event
		var sdi, odi uint32
		if sdi, odi, err = c.event(i, s.m, &ev); err != nil {
			return false
		}
		if q.EvtPred != nil && !evtVec && !q.EvtPred.Eval(&ev) {
			return true
		}
		return emit(Match{Event: s.arena.put(ev), Subj: s.f.ents[sdi], Obj: s.f.ents[odi]})
	})
	return more, err
}

// scanCold streams one partition's cold runs through emit in temporal
// order, cheapest evidence first. Per block: the zone map (no bytes read);
// then the block's stored bytes are checksummed and inflated, and the row
// filter — op set, subject and object verdicts, the same rowFilter the hot
// shadow uses — runs over the bit-packed op and dictionary-index columns in
// place (mark); a block with no survivor stops there. Otherwise finish
// decodes the value columns the window edge and the event predicate read,
// and the rest only for rows that passed everything. With a small candidate
// set the rows tested are the candidates' posting positions instead of
// every row. emit returning false stops the scan (not an error); the
// returned error is always segment corruption or a decode failure.
func (sn *Snapshot) scanCold(ctx context.Context, p *partView, q *DataQuery, subjCand, objCand map[types.EntityID]struct{}, emit func(Match) bool) error {
	stats := &sn.store.scanStats
	zoneMaps := !sn.opts.DisableZoneMaps
	windowed := !q.Window.Unbounded()

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

	// Attribute zone maps (v3 runs only): trigram bits every matching
	// subject/object entity must exhibit. Valid in candidate-set mode too —
	// candidate membership implies the predicate holds, which implies the
	// entity carries the required substrings. Zero masks never prune.
	var subjTriMask, objTriMask uint64
	if zoneMaps && !q.ForceScan {
		subjTriMask = requiredTriMask(q.SubjPred)
		objTriMask = requiredTriMask(q.ObjPred)
	}

	// outside reports a zone no row of which can be in the window or carry a
	// wanted operation.
	outside := func(z *segV2Zone) bool {
		return (windowed && (z.maxStart < q.Window.From || z.minStart >= q.Window.To)) ||
			z.ops.Intersect(q.Ops).Empty()
	}

	s := &coldScan{
		sn: sn, q: q, subjCand: subjCand, objCand: objCand,
		sel: pred.NewBitmap(segV2BlockRows),
	}
	for _, run := range p.cold {
		if ctx.Err() != nil {
			return nil
		}
		if zoneMaps && windowed && (run.pi.maxStart < q.Window.From || run.pi.minStart >= q.Window.To) {
			stats.blocksConsidered.Add(int64(run.pi.nBlocks))
			stats.blocksSkipped.Add(int64(run.pi.nBlocks))
			continue
		}
		m, err := run.meta()
		if err != nil {
			return err
		}
		s.m, s.f = m, rowFilter{}

		if usePostings {
			// Positions ascend, so each block's candidates are consecutive
			// and blocks open at most once each, in order.
			positions := coldPostings(m, subjCand, objCand, fromSubject)
			rowBase, b := 0, 0
			for k := 0; k < len(positions); {
				if ctx.Err() != nil {
					return nil
				}
				for int(positions[k]) >= rowBase+m.zones[b].count {
					rowBase += m.zones[b].count
					b++
				}
				z := &m.zones[b]
				first := k
				for k < len(positions) && int(positions[k]) < rowBase+z.count {
					k++
				}
				stats.blocksConsidered.Add(1)
				if zoneMaps && outside(z) {
					stats.blocksSkipped.Add(1)
					continue
				}
				if err := s.open(run, b, rowBase); err != nil {
					return err
				}
				for _, pos := range positions[first:k] {
					i := int(pos) - rowBase
					op, ok := s.cols.opAt(i)
					if !ok {
						return s.cols.corrupt("row %d: operation %d outside zone op set", i, op)
					}
					if err := s.mark(i, op); err != nil {
						return err
					}
				}
				if more, err := s.finish(emit); err != nil || !more {
					return err
				}
			}
			continue
		}

		// Range path: every row of every block the zone maps cannot exclude.
		subjIdx, subjIdxOK := []uint32(nil), false
		objIdx, objIdxOK := []uint32(nil), false
		if zoneMaps && !q.ForceScan {
			subjIdx, subjIdxOK = dictIndexSet(subjCand, m)
			objIdx, objIdxOK = dictIndexSet(objCand, m)
			// A candidate set with no dictionary hits matches nothing in
			// this run.
			if (subjIdxOK && len(subjIdx) == 0) || (objIdxOK && len(objIdx) == 0) {
				stats.blocksConsidered.Add(int64(run.pi.nBlocks))
				stats.blocksSkipped.Add(int64(run.pi.nBlocks))
				continue
			}
		}
		rowBase := 0
		for b := range m.zones {
			if ctx.Err() != nil {
				return nil
			}
			z := &m.zones[b]
			blockBase := rowBase
			rowBase += z.count
			stats.blocksConsidered.Add(1)
			if zoneMaps {
				if outside(z) ||
					(subjIdxOK && !anyInRange(subjIdx, z.minSubj, z.maxSubj)) ||
					(objIdxOK && !anyInRange(objIdx, z.minObj, z.maxObj)) {
					stats.blocksSkipped.Add(1)
					continue
				}
				if run.sf.version >= 3 &&
					((subjTriMask != 0 && z.subjTri&subjTriMask != subjTriMask) ||
						(objTriMask != 0 && z.objTri&objTriMask != objTriMask)) {
					stats.blocksSkipped.Add(1)
					stats.attrZoneSkips.Add(1)
					continue
				}
			}
			if err := s.open(run, b, blockBase); err != nil {
				return err
			}
			ops, err := s.cols.opColumn()
			if err != nil {
				return err
			}
			for i, op := range ops {
				if err := s.mark(i, op); err != nil {
					return err
				}
			}
			if more, err := s.finish(emit); err != nil || !more {
				return err
			}
		}
	}
	return nil
}

// coldPostings gathers candidate positions from a run's posting lists,
// merged ascending.
func coldPostings(m *segV2Meta, subjCand, objCand map[types.EntityID]struct{}, fromSubject bool) []uint32 {
	cand := subjCand
	if !fromSubject {
		cand = objCand
	}
	var positions []uint32
	for id := range cand {
		di := m.dictIndex(id)
		if di < 0 {
			continue
		}
		if fromSubject {
			positions = append(positions, m.subjectPostings(di)...)
		} else {
			positions = append(positions, m.objectPostings(di)...)
		}
	}
	slices.Sort(positions)
	return positions
}

// coldEstimate bounds how many cold rows of a partition a window can touch,
// using only directory information (no meta decode): a run overlapping the
// window contributes its full row count.
func coldEstimate(p *partView, w timeutil.Window) int {
	total := 0
	for _, run := range p.cold {
		if !w.Unbounded() && (run.pi.maxStart < w.From || run.pi.minStart >= w.To) {
			continue
		}
		total += run.pi.nEvents
	}
	return total
}
