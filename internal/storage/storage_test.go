package storage

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// buildFixture creates a small deterministic store: 3 agents x 2 days,
// each with one process writing files and one network talker.
func buildFixture(opts Options) (*Store, *types.Dataset) {
	var entities []types.Entity
	var events []types.Event
	id := types.EntityID(0)
	evID := types.EventID(0)
	nextEnt := func(t types.EntityType, agent int, attrs map[string]string) types.EntityID {
		id++
		entities = append(entities, types.Entity{ID: id, Type: t, AgentID: agent, Attrs: attrs})
		return id
	}
	for agent := 1; agent <= 3; agent++ {
		proc := nextEnt(types.EntityProcess, agent, map[string]string{types.AttrExeName: "/bin/worker"})
		sh := nextEnt(types.EntityProcess, agent, map[string]string{types.AttrExeName: "/bin/sh"})
		file := nextEnt(types.EntityFile, agent, map[string]string{types.AttrName: "/data/log.txt"})
		conn := nextEnt(types.EntityNetwork, agent, map[string]string{types.AttrDstIP: "10.0.0.9", types.AttrDstPort: "443"})
		seq := uint64(0)
		for day := 0; day < 2; day++ {
			base := int64(day) * timeutil.DayMillis
			for k := int64(0); k < 50; k++ {
				seq++
				evID++
				events = append(events, types.Event{
					ID: evID, AgentID: agent, Subject: proc, Object: file,
					Op: types.OpWrite, Start: base + k*1000, Seq: seq, Amount: 100 + k,
				})
			}
			seq++
			evID++
			events = append(events, types.Event{
				ID: evID, AgentID: agent, Subject: sh, Object: conn,
				Op: types.OpConnect, Start: base + 99_000, Seq: seq,
			})
		}
	}
	ds := types.NewDataset(entities, events)
	st := New(opts)
	st.Ingest(ds)
	return st, ds
}

func TestIngestCounts(t *testing.T) {
	st, ds := buildFixture(Options{})
	if st.EventCount() != len(ds.Events) {
		t.Errorf("event count = %d, want %d", st.EventCount(), len(ds.Events))
	}
	// 3 agents x 2 days = 6 partitions.
	if st.PartitionCount() != 6 {
		t.Errorf("partitions = %d, want 6", st.PartitionCount())
	}
	if got := st.Agents(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("agents = %v", got)
	}
	if got := st.Days(); len(got) != 2 {
		t.Errorf("days = %v", got)
	}
}

func TestSpatialPruning(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{
		Agents:   []int{2},
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 100 { // 50 writes x 2 days on agent 2
		t.Fatalf("matches = %d, want 100", len(out))
	}
	for _, m := range out {
		if m.Event.AgentID != 2 {
			t.Fatalf("leaked event from agent %d", m.Event.AgentID)
		}
	}
}

func TestTemporalPruning(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{
		Window:   timeutil.DayWindow(1),
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 150 { // 50 writes x 3 agents on day 1
		t.Fatalf("matches = %d, want 150", len(out))
	}
	for _, m := range out {
		if timeutil.DayIndex(m.Event.Start) != 1 {
			t.Fatal("leaked event from another day")
		}
	}
}

func TestSubWindowBinarySearch(t *testing.T) {
	st, _ := buildFixture(Options{})
	// Events are at k*1000 for k in [0,50); a window [10s, 20s) on day 0
	// should catch exactly 10 writes per agent.
	q := &DataQuery{
		Window:   timeutil.Window{From: 10_000, To: 20_000},
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 30 {
		t.Fatalf("matches = %d, want 30", len(out))
	}
}

func TestEntityPredicateViaIndex(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{
		SubjType: types.EntityProcess,
		SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "/bin/sh"),
		ObjType:  types.EntityNetwork,
		Ops:      types.NewOpSet(types.OpConnect),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 6 { // 1 connect x 3 agents x 2 days
		t.Fatalf("matches = %d, want 6", len(out))
	}
	for _, m := range out {
		if m.Subj.Attrs[types.AttrExeName] != "/bin/sh" {
			t.Fatal("wrong subject matched")
		}
	}
}

func TestWildcardPredicateNeedsScan(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{
		SubjType: types.EntityProcess,
		SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%work%"),
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
	}
	if got := len(st.Run(context.Background(), q)); got != 300 {
		t.Fatalf("wildcard matches = %d, want 300", got)
	}
}

func TestAllowedSetsConstrainExecution(t *testing.T) {
	st, ds := buildFixture(Options{})
	// Find one specific worker process entity on agent 1.
	var worker types.EntityID
	for i := range ds.Entities {
		e := &ds.Entities[i]
		if e.AgentID == 1 && e.Attrs[types.AttrExeName] == "/bin/worker" {
			worker = e.ID
		}
	}
	q := &DataQuery{
		SubjType:    types.EntityProcess,
		SubjAllowed: map[types.EntityID]struct{}{worker: {}},
		ObjType:     types.EntityFile,
		Ops:         types.NewOpSet(types.OpWrite),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 100 {
		t.Fatalf("matches = %d, want 100", len(out))
	}
	for _, m := range out {
		if m.Event.Subject != worker {
			t.Fatal("allowed set leaked")
		}
	}
	// Allowed set with predicate conflict yields nothing.
	q.SubjPred = pred.NewCond(types.AttrExeName, pred.CmpEq, "/bin/sh")
	if got := len(st.Run(context.Background(), q)); got != 0 {
		t.Fatalf("conflicting allowed set + pred matched %d", got)
	}
}

func TestEvtPredAndLimit(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
		EvtPred:  pred.NewCond(types.EvtAttrAmount, pred.CmpGe, "140"),
	}
	out := st.Run(context.Background(), q)
	if len(out) != 60 { // k in [40,50) x 3 agents x 2 days
		t.Fatalf("amount filter matches = %d, want 60", len(out))
	}
	q.Limit = 7
	if got := len(st.Run(context.Background(), q)); got != 7 {
		t.Fatalf("limit ignored: %d", got)
	}
}

func TestOptionTogglesPreserveResults(t *testing.T) {
	// The correctness property behind every ablation benchmark: the
	// optimization toggles change cost, never results.
	queries := []*DataQuery{
		{SubjType: types.EntityProcess, ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite)},
		{Agents: []int{1}, SubjType: types.EntityProcess, ObjType: types.EntityNetwork, Ops: types.NewOpSet(types.OpConnect)},
		{Window: timeutil.DayWindow(0), SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "/bin/sh"),
			ObjType:  types.EntityNetwork, Ops: types.AllOps()},
		{SubjType: types.EntityProcess, ObjType: types.EntityFile,
			ObjPred: pred.NewCond(types.AttrName, pred.CmpEq, "%log%"),
			Ops:     types.AllOps(), ForceScan: true},
	}
	variants := []Options{
		{},
		{DisableIndexes: true},
		{DisablePruning: true},
		{Workers: 1},
		{DisableIndexes: true, DisablePruning: true, Workers: 1},
	}
	var baseline [][]types.EventID
	for vi, opts := range variants {
		st, _ := buildFixture(opts)
		for qi, q := range queries {
			ids := matchIDs(st.Run(context.Background(), q))
			if vi == 0 {
				baseline = append(baseline, ids)
				continue
			}
			if !equalIDs(ids, baseline[qi]) {
				t.Errorf("variant %d query %d: results differ from baseline", vi, qi)
			}
		}
	}
}

// TestPartitionPredicateRestrictsAnswer: a query's partition predicate
// selects the (agent, day) partitions it accepts under every option set —
// with pruning disabled too, since it is part of the answer.
func TestPartitionPredicateRestrictsAnswer(t *testing.T) {
	keep := func(agent, day int) bool { return agent != 2 && day == 1 }
	for _, opts := range []Options{{}, {DisablePruning: true}, {DisableIndexes: true, Workers: 1}} {
		st, ds := buildFixture(opts)
		var want []types.EventID
		for _, ev := range ds.Events {
			if ev.Op == types.OpWrite && keep(ev.AgentID, timeutil.DayIndex(ev.Start)) {
				want = append(want, ev.ID)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		q := &DataQuery{Ops: types.NewOpSet(types.OpWrite), Partition: keep}
		if got := matchIDs(st.Run(context.Background(), q)); len(want) == 0 || !equalIDs(got, want) {
			t.Errorf("%+v: partition predicate matched %d events, want %d", opts, len(got), len(want))
		}
	}
}

func matchIDs(ms []Match) []types.EventID {
	ids := make([]types.EventID, len(ms))
	for i, m := range ms {
		ids[i] = m.Event.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []types.EventID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOutOfOrderIngestResorts(t *testing.T) {
	st := New(Options{})
	st.Ingest(&types.Dataset{Entities: []types.Entity{
		{ID: 1, Type: types.EntityProcess, AgentID: 1, Attrs: map[string]string{types.AttrExeName: "/p"}},
		{ID: 2, Type: types.EntityFile, AgentID: 1, Attrs: map[string]string{types.AttrName: "/f"}},
	}})
	// Insert events in reverse temporal order, one batch each.
	for i := 5; i >= 1; i-- {
		st.Ingest(&types.Dataset{Events: []types.Event{{ID: types.EventID(i), AgentID: 1, Subject: 1, Object: 2,
			Op: types.OpWrite, Start: int64(i * 1000), Seq: uint64(i)}}})
	}
	out := st.Run(context.Background(), &DataQuery{SubjType: types.EntityProcess, ObjType: types.EntityFile,
		Ops: types.NewOpSet(types.OpWrite)})
	if len(out) != 5 {
		t.Fatalf("matches = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Event.Start > out[i].Event.Start {
			t.Fatal("partition not re-sorted after out-of-order ingestion")
		}
	}
}

func TestDuplicateEntityIngestIgnored(t *testing.T) {
	st := New(Options{})
	e := &types.Entity{ID: 1, Type: types.EntityFile, Attrs: map[string]string{types.AttrName: "/f"}}
	st.Ingest(&types.Dataset{Entities: []types.Entity{*e}})
	st.Ingest(&types.Dataset{Entities: []types.Entity{*e}})
	if got := len(st.entityIdx.ids[entityKey{typ: types.EntityFile, attr: types.AttrName, val: "/f"}]); got != 1 {
		t.Errorf("duplicate entity indexed %d times", got)
	}
}

// TestScanEquivalenceProperty: for random queries, the indexed/pruned
// execution must return exactly the same events as a naive full filter over
// the raw dataset.
func TestScanEquivalenceProperty(t *testing.T) {
	st, ds := buildFixture(Options{})
	rng := rand.New(rand.NewSource(11))
	exes := []string{"/bin/worker", "/bin/sh", "%work%", "%sh"}

	naive := func(q *DataQuery) []types.EventID {
		var out []types.EventID
		for i := range ds.Events {
			ev := &ds.Events[i]
			if !q.Ops.Contains(ev.Op) {
				continue
			}
			if len(q.Agents) > 0 && ev.AgentID != q.Agents[0] {
				continue
			}
			if !q.Window.Unbounded() && !q.Window.Contains(ev.Start) {
				continue
			}
			subj, obj := ds.Entity(ev.Subject), ds.Entity(ev.Object)
			if q.SubjType != types.EntityInvalid && subj.Type != q.SubjType {
				continue
			}
			if q.ObjType != types.EntityInvalid && obj.Type != q.ObjType {
				continue
			}
			if q.SubjPred != nil && !q.SubjPred.Eval(subj) {
				continue
			}
			if q.ObjPred != nil && !q.ObjPred.Eval(obj) {
				continue
			}
			out = append(out, ev.ID)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	for trial := 0; trial < 200; trial++ {
		q := &DataQuery{
			SubjType: types.EntityProcess,
			Ops:      types.AllOps(),
		}
		if rng.Intn(2) == 0 {
			q.Agents = []int{1 + rng.Intn(3)}
		}
		if rng.Intn(2) == 0 {
			day := rng.Intn(2)
			q.Window = timeutil.DayWindow(day)
		}
		if rng.Intn(2) == 0 {
			q.SubjPred = pred.NewCond(types.AttrExeName, pred.CmpEq, exes[rng.Intn(len(exes))])
		}
		switch rng.Intn(3) {
		case 0:
			q.ObjType = types.EntityFile
		case 1:
			q.ObjType = types.EntityNetwork
		}
		if rng.Intn(3) == 0 {
			q.Ops = types.NewOpSet(types.OpWrite)
		}
		got := matchIDs(st.Run(context.Background(), q))
		want := naive(q)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: store returned %d events, naive filter %d (query %+v)",
				trial, len(got), len(want), q)
		}
	}
}

// TestForceScanEquivalence: ForceScan must never change results.
func TestForceScanEquivalence(t *testing.T) {
	st, _ := buildFixture(Options{})
	f := func(agentRaw, opRaw uint8) bool {
		q := &DataQuery{
			Agents:   []int{int(agentRaw%3) + 1},
			SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "/bin/worker"),
			Ops:      types.NewOpSet(types.OpWrite, types.OpConnect),
		}
		if opRaw%2 == 0 {
			q.ObjType = types.EntityFile
		}
		a := matchIDs(st.Run(context.Background(), q))
		forced := *q
		forced.ForceScan = true
		b := matchIDs(st.Run(context.Background(), &forced))
		return equalIDs(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyStore(t *testing.T) {
	st := New(Options{})
	out := st.Run(context.Background(), &DataQuery{SubjType: types.EntityProcess, Ops: types.AllOps()})
	if len(out) != 0 {
		t.Errorf("empty store returned %d matches", len(out))
	}
	if st.Entity(1) != nil {
		t.Error("empty store returned an entity")
	}
}

// TestPreEpochPartitioning pins the floor-division day semantics at the
// storage layer: events one millisecond either side of the epoch belong to
// two distinct partitions (day -1 and day 0), day-windowed queries return
// exactly their own day, and an epoch-straddling window finds both — with
// truncating division both events collapsed onto day 0 and the pre-epoch
// day was unreachable by pruning.
func TestPreEpochPartitioning(t *testing.T) {
	st := New(Options{})
	proc := types.Entity{ID: 1, Type: types.EntityProcess, AgentID: 1, Attrs: map[string]string{types.AttrExeName: "/bin/x"}}
	file := types.Entity{ID: 2, Type: types.EntityFile, AgentID: 1, Attrs: map[string]string{types.AttrName: "/f"}}
	events := []types.Event{
		{ID: 1, AgentID: 1, Subject: 1, Object: 2, Op: types.OpWrite, Start: -1, Seq: 1},
		{ID: 2, AgentID: 1, Subject: 1, Object: 2, Op: types.OpWrite, Start: 0, Seq: 2},
		{ID: 3, AgentID: 1, Subject: 1, Object: 2, Op: types.OpWrite, Start: -timeutil.DayMillis, Seq: 3},
	}
	st.Ingest(types.NewDataset([]types.Entity{proc, file}, events))

	if got := st.PartitionCount(); got != 2 {
		t.Fatalf("partitions = %d, want 2 (day -1 and day 0)", got)
	}
	if got := st.Days(); len(got) != 2 || got[0] != -1 || got[1] != 0 {
		t.Fatalf("days = %v, want [-1 0]", got)
	}

	base := &DataQuery{SubjType: types.EntityProcess, ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite)}

	dayQ := *base
	dayQ.Window = timeutil.DayWindow(-1)
	out := st.Run(context.Background(), &dayQ)
	if len(out) != 2 {
		t.Fatalf("day -1 query found %d events, want 2", len(out))
	}
	for _, m := range out {
		if timeutil.DayIndex(m.Event.Start) != -1 {
			t.Fatalf("day -1 query leaked event at t=%d", m.Event.Start)
		}
	}

	straddle := *base
	straddle.Window = timeutil.Window{From: -10, To: 10}
	if out := st.Run(context.Background(), &straddle); len(out) != 2 {
		t.Fatalf("epoch-straddling query found %d events, want 2 (t=-1 and t=0)", len(out))
	}

	// To == 0 with a bounded From is an empty window, not "unbounded
	// above": it must match nothing rather than fabricate a day range.
	empty := *base
	empty.Window = timeutil.Window{From: -10, To: 0}
	if out := st.Run(context.Background(), &empty); len(out) != 1 {
		t.Fatalf("window [-10,0) found %d events, want 1 (t=-1)", len(out))
	}
	halfBuilt := *base
	halfBuilt.Window = timeutil.Window{From: 10, To: 0}
	if out := st.Run(context.Background(), &halfBuilt); len(out) != 0 {
		t.Fatalf("empty window {10,0} found %d events, want 0", len(out))
	}
}

// TestLiveCursorAccounting drives every way a cursor's life can end —
// clean exhaustion, early Close, double Close, context cancellation before
// and during the scan, limit cut-off, and the empty-result fast path — and
// asserts the live-cursor and live-snapshot counters return to baseline
// after each. A counter stuck above zero means some path stranded producer
// goroutines or left the store paying copy-on-write for a dead reader.
func TestLiveCursorAccounting(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{SubjType: types.EntityProcess, ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite)}
	assertBaseline := func(step string) {
		t.Helper()
		if n := st.LiveCursors(); n != 0 {
			t.Fatalf("%s: %d cursors live, want 0", step, n)
		}
		if n := st.LiveSnapshots(); n != 0 {
			t.Fatalf("%s: %d snapshots live, want 0", step, n)
		}
	}

	// Clean exhaustion via Drain (Close afterwards is a no-op).
	c := st.Scan(context.Background(), q)
	if got := st.LiveCursors(); got != 1 {
		t.Fatalf("open scan: %d cursors live, want 1", got)
	}
	Drain(c)
	c.Close()
	assertBaseline("drain")

	// Early close without reading anything.
	st.Scan(context.Background(), q).Close()
	assertBaseline("early close")

	// Double close stays balanced.
	c = st.Scan(context.Background(), q)
	c.Close()
	c.Close()
	assertBaseline("double close")

	// Context canceled before the scan starts: no cursor ever goes live.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	c = st.Scan(canceled, q)
	if c.Err() == nil {
		Drain(c)
	}
	c.Close()
	assertBaseline("pre-canceled")

	// Cancellation mid-stream.
	ctx, cancel2 := context.WithCancel(context.Background())
	c = st.Scan(ctx, q)
	batch := make([]Match, 8)
	c.Next(batch)
	cancel2()
	for c.Next(batch) > 0 {
	}
	c.Close()
	assertBaseline("mid-cancel")

	// Limit cut-off.
	lq := *q
	lq.Limit = 3
	c = st.Scan(context.Background(), &lq)
	Drain(c)
	c.Close()
	assertBaseline("limit")

	// Empty result fast path (impossible window).
	eq := *q
	eq.Window = timeutil.Window{From: 10, To: 0}
	c = st.Scan(context.Background(), &eq)
	Drain(c)
	c.Close()
	assertBaseline("empty")

	// Snapshot-level scans count against the owning store too.
	snap := st.Snapshot()
	c = snap.Scan(context.Background(), q)
	if got := st.LiveCursors(); got != 1 {
		t.Fatalf("snapshot scan: %d cursors live, want 1", got)
	}
	c.Close()
	if got := st.LiveCursors(); got != 0 {
		t.Fatalf("closed snapshot scan: %d cursors live, want 0", got)
	}
	snap.Close()
	assertBaseline("snapshot scan")
}
