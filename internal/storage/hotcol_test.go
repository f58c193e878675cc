package storage

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// hotTestData builds a dataset sized and shaped for the hot columnar path:
// enough rows per partition to clear hotShadowMinRows and enough matching
// entities that wildcard predicates overflow the posting-list threshold and
// land on the range scan.
func hotTestData(nEvents int) ([]types.Entity, []types.Event) {
	const base = int64(1488326400000) // 2017-03-01T00:00:00Z
	var entities []types.Entity
	for id := 1; id <= 400; id++ {
		exe := "/bin/tool-" + strconv.Itoa(id)
		if id%2 == 0 {
			exe = "/bin/alpha-" + strconv.Itoa(id)
		}
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1 + id%2,
			Attrs: map[string]string{types.AttrExeName: exe},
		})
	}
	for id := 1001; id <= 1100; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityFile, AgentID: 1 + id%2,
			Attrs: map[string]string{types.AttrName: fmt.Sprintf("/tmp/f%d", id)},
		})
	}
	ops := []types.Op{types.OpRead, types.OpWrite, types.OpExecute, types.OpDelete}
	events := make([]types.Event, nEvents)
	for i := range events {
		events[i] = types.Event{
			ID:      types.EventID(i + 1),
			AgentID: 1 + i%2,
			Subject: types.EntityID(1 + i%400),
			Object:  types.EntityID(1001 + i%100),
			Op:      ops[i%len(ops)],
			Start:   base + int64(i/2)*500 + int64(i%2)*86_400_000,
			End:     base + int64(i/2)*500 + int64(i%2)*86_400_000 + 3,
			Seq:     uint64(i + 1),
			Amount:  int64((i * 37) % 10_000),
			FailCode: func() int {
				if i%50 == 0 {
					return 5
				}
				return 0
			}(),
		}
	}
	return entities, events
}

// hotDiffQueries is the query battery for hot-path differentials: each
// entry must exercise a distinct mix of op filters, type filters, entity
// predicates (vector-verdict path), event predicates (both the vectorized
// kernel and its row-at-a-time refusal fallback), windows, and limits.
func hotDiffQueries() []*DataQuery {
	const base = int64(1488326400000)
	return []*DataQuery{
		{Ops: types.AllOps()},
		{Ops: types.NewOpSet(types.OpRead, types.OpWrite)},
		{Ops: types.AllOps(), SubjType: types.EntityProcess, ObjType: types.EntityFile},
		{Ops: types.AllOps(), SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%alpha%")},
		{Ops: types.AllOps(), SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%alpha%"),
			ObjType:  types.EntityFile,
			EvtPred:  pred.NewCond(types.EvtAttrAmount, pred.CmpGe, "5000")},
		{Ops: types.AllOps(), EvtPred: pred.NewCond(types.EvtAttrAmount, pred.CmpLt, "300")},
		{Ops: types.AllOps(), EvtPred: pred.AndOf(
			pred.NewCond(types.EvtAttrAmount, pred.CmpGe, "100"),
			pred.NewCond(types.EvtAttrFailCode, pred.CmpEq, "0"))},
		// optype is a string event attribute the kernel refuses: forces the
		// per-row fallback inside scanHot.
		{Ops: types.AllOps(), EvtPred: pred.NewCond(types.EvtAttrOpType, pred.CmpEq, "read")},
		{Ops: types.AllOps(), Agents: []int{1}},
		{Ops: types.AllOps(), Window: timeutil.Window{From: base + 200_000, To: base + 400_000}},
		{Ops: types.AllOps(), Limit: 17},
		{Ops: types.AllOps(), ForceScan: true},
	}
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Event.ID != w.Event.ID || g.Event.Seq != w.Event.Seq {
			t.Fatalf("%s: match %d is event %d/%d, want %d/%d",
				label, i, g.Event.ID, g.Event.Seq, w.Event.ID, w.Event.Seq)
		}
		if g.Subj.ID != w.Subj.ID || g.Obj.ID != w.Obj.ID {
			t.Fatalf("%s: match %d resolved entities (%d,%d), want (%d,%d)",
				label, i, g.Subj.ID, g.Obj.ID, w.Subj.ID, w.Obj.ID)
		}
	}
}

// TestHotColumnarDifferential runs the battery against two stores holding
// identical hot data — columnar shadows on and off — and requires
// row-identical results, with the counters proving the batch path actually
// served the enabled store.
func TestHotColumnarDifferential(t *testing.T) {
	entities, events := hotTestData(6000)
	ds := types.NewDataset(entities, events)
	hot := New(Options{})
	hot.Ingest(ds)
	scalar := New(Options{DisableHotColumnar: true})
	scalar.Ingest(ds)

	for i, q := range hotDiffQueries() {
		label := fmt.Sprintf("query %d", i)
		qc := *q
		qs := *q
		matchesEqual(t, label, hot.Run(context.Background(), &qc), scalar.Run(context.Background(), &qs))
	}

	hs, ss := hot.ScanStats(), scalar.ScanStats()
	if hs[HotBatches] == 0 || hs[DictVerdictHits] == 0 {
		t.Fatalf("hot store never used the batch path: %+v", hs)
	}
	if ss[HotBatches] != 0 || ss[DictVerdictHits] != 0 {
		t.Fatalf("DisableHotColumnar store used the batch path: %+v", ss)
	}
}

// TestHotShadowExtend exercises the in-place growth contract directly: a
// shadow extended over the same backing array must reuse column storage
// when capacity allows, keep the published prefix identical, and append
// dictionary slots in first-seen order without reordering existing ones.
func TestHotShadowExtend(t *testing.T) {
	_, events := hotTestData(1000)
	sh1 := buildShadow(events[:600])
	if sh1.n != 600 || sh1.base != &events[0] {
		t.Fatalf("built shadow n=%d base ok=%v", sh1.n, sh1.base == &events[0])
	}
	dictBefore := append([]types.EntityID(nil), sh1.dict...)

	sh2 := sh1.extend(events)
	if sh2.n != 1000 || sh2.base != &events[0] {
		t.Fatalf("extended shadow n=%d", sh2.n)
	}
	// buildShadow sizes columns with headroom; extending 600→1000 must not
	// reallocate, so both shadows share backing arrays.
	if &sh1.starts[0] != &sh2.starts[0] || &sh1.subj[0] != &sh2.subj[0] {
		t.Fatal("extension reallocated columns despite sufficient capacity")
	}
	// The old struct's view stays coherent after extension.
	if len(sh1.starts) != 600 || sh1.starts[599] != events[599].Start {
		t.Fatalf("published prefix disturbed: len=%d", len(sh1.starts))
	}
	for i, id := range dictBefore {
		if sh2.dict[i] != id {
			t.Fatalf("dict slot %d changed from %d to %d", i, id, sh2.dict[i])
		}
	}
	for i, ev := range events {
		if sh2.starts[i] != ev.Start || sh2.ops[i] != ev.Op ||
			sh2.dict[sh2.subj[i]] != ev.Subject || sh2.dict[sh2.obj[i]] != ev.Object {
			t.Fatalf("row %d miscopied", i)
		}
	}
}

// TestHotShadowReuseAndStaleness checks shadowFor's caching: same backing
// array and coverage hits the published shadow; a different backing array
// (the situation after a copy-on-write re-sort) forces a rebuild.
func TestHotShadowReuseAndStaleness(t *testing.T) {
	entities, events := hotTestData(800)
	st := New(Options{})
	st.Ingest(types.NewDataset(entities, events))

	st.mu.RLock()
	var p *partition
	for _, cand := range st.parts {
		if p == nil || len(cand.events) > len(p.events) {
			p = cand
		}
	}
	st.mu.RUnlock()
	if p == nil || len(p.events) < hotShadowMinRows {
		t.Fatalf("no partition big enough to shadow")
	}

	evs := p.events
	sh1 := p.shadowFor(evs, len(evs))
	if sh1 == nil {
		t.Fatal("shadowFor returned nil")
	}
	if sh2 := p.shadowFor(evs, len(evs)); sh2 != sh1 {
		t.Fatal("covering shadow not reused")
	}
	if sh3 := p.shadowFor(evs, len(evs)/2); sh3 != sh1 {
		t.Fatal("narrower request rebuilt a covering shadow")
	}
	copied := append([]types.Event(nil), evs...)
	sh4 := p.shadowFor(copied, len(copied))
	if sh4 == sh1 {
		t.Fatal("stale shadow served for a different backing array")
	}
	if sh4.base != &copied[0] || sh4.n != len(copied) {
		t.Fatalf("rebuilt shadow base/n wrong: n=%d", sh4.n)
	}
}

// TestHotShadowInvalidationOnResort ingests out of order so the partition
// re-sorts, and requires scans before and after to stay identical to a
// shadow-disabled reference fed the same sequence.
func TestHotShadowInvalidationOnResort(t *testing.T) {
	entities, events := hotTestData(1200)
	// Late batch that sorts before everything already ingested.
	late := make([]types.Event, 300)
	for i := range late {
		late[i] = events[i]
		late[i].ID = types.EventID(10_000 + i)
		late[i].Seq = uint64(10_000 + i)
		late[i].Start -= 1000
		late[i].End -= 1000
	}

	hot := New(Options{})
	scalar := New(Options{DisableHotColumnar: true})
	for _, s := range []*Store{hot, scalar} {
		s.Ingest(types.NewDataset(entities, events))
	}
	all := func() *DataQuery { return &DataQuery{Ops: types.AllOps()} }
	matchesEqual(t, "pre-resort", hot.Run(context.Background(), all()), scalar.Run(context.Background(), all()))

	hot.Ingest(&types.Dataset{Events: late})
	scalar.Ingest(&types.Dataset{Events: late})
	matchesEqual(t, "post-resort", hot.Run(context.Background(), all()), scalar.Run(context.Background(), all()))

	q := &DataQuery{Ops: types.AllOps(), SubjType: types.EntityProcess,
		SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%alpha%")}
	q2 := *q
	matchesEqual(t, "post-resort pred", hot.Run(context.Background(), q), scalar.Run(context.Background(), &q2))
}

// TestHotShadowSnapshotPinned interleaves snapshot scans with mutating
// ingests: the snapshot's results must be frozen at capture time even as
// the live store re-sorts its arrays and rebuilds shadows underneath.
func TestHotShadowSnapshotPinned(t *testing.T) {
	entities, events := hotTestData(1000)
	st := New(Options{})
	st.Ingest(types.NewDataset(entities, events))

	sn := st.Snapshot()
	defer sn.Close()
	all := func() *DataQuery { return &DataQuery{Ops: types.AllOps()} }
	before := sn.Run(context.Background(), all())
	if len(before) != 1000 {
		t.Fatalf("snapshot scan saw %d events, want 1000", len(before))
	}

	// Out-of-order ingest: the live partitions copy-and-re-sort while the
	// snapshot pins the old arrays (and the shadows built from them).
	late := events[:200]
	lateCopy := make([]types.Event, len(late))
	copy(lateCopy, late)
	for i := range lateCopy {
		lateCopy[i].ID = types.EventID(20_000 + i)
		lateCopy[i].Seq = uint64(20_000 + i)
		lateCopy[i].Start -= 777
	}
	st.Ingest(&types.Dataset{Events: lateCopy})

	after := sn.Run(context.Background(), all())
	matchesEqual(t, "snapshot frozen", after, before)
	if live := st.Run(context.Background(), all()); len(live) != 1200 {
		t.Fatalf("live scan saw %d events, want 1200", len(live))
	}
	matchesEqual(t, "snapshot still frozen", sn.Run(context.Background(), all()), before)
}

// TestHotConcurrentScanIngest hammers one store with parallel scans while
// the main goroutine keeps ingesting (in order and out of order). Run under
// -race this is the shadow's publication-safety test; the final differential
// proves no scan path corrupted shared state.
func TestHotConcurrentScanIngest(t *testing.T) {
	entities, events := hotTestData(4000)
	st := New(Options{})
	st.Ingest(types.NewDataset(entities, events[:2000]))

	qs := hotDiffQueries()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := *qs[rng.Intn(len(qs))]
				_ = st.Run(context.Background(), &q)
			}
		}(g)
	}
	for off := 2000; off < 4000; off += 250 {
		batch := make([]types.Event, 250)
		copy(batch, events[off:off+250])
		if off%500 == 0 {
			// Perturb half the batches so some ingests force a re-sort.
			for i := range batch {
				batch[i].Start -= 250
			}
		}
		st.Ingest(&types.Dataset{Events: batch})
	}
	close(stop)
	wg.Wait()

	ref := New(Options{DisableHotColumnar: true})
	ref.Ingest(types.NewDataset(entities, events[:2000]))
	for off := 2000; off < 4000; off += 250 {
		batch := make([]types.Event, 250)
		copy(batch, events[off:off+250])
		if off%500 == 0 {
			for i := range batch {
				batch[i].Start -= 250
			}
		}
		ref.Ingest(&types.Dataset{Events: batch})
	}
	for i, q := range hotDiffQueries() {
		qc, qr := *q, *q
		matchesEqual(t, fmt.Sprintf("final query %d", i), st.Run(context.Background(), &qc), ref.Run(context.Background(), &qr))
	}
}
