package storage

import (
	"context"
	"sync"
	"testing"
	"time"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// allEvents is an unconstrained data query matching every event whose
// entities resolve.
func allEvents() *DataQuery {
	return &DataQuery{Ops: types.AllOps()}
}

func TestSnapshotIsolation(t *testing.T) {
	st, ds := buildFixture(Options{})
	snap := st.Snapshot()
	defer snap.Close()

	if snap.Generation() != st.Generation() {
		t.Fatalf("snapshot generation %d != store generation %d", snap.Generation(), st.Generation())
	}
	before := snap.Run(context.Background(), allEvents())
	if len(before) != len(ds.Events) {
		t.Fatalf("snapshot sees %d events, want %d", len(before), len(ds.Events))
	}

	// Ingest a second copy of the dataset (new event IDs, same entities):
	// the live store doubles, the snapshot must not move.
	extra := make([]types.Event, len(ds.Events))
	copy(extra, ds.Events)
	for i := range extra {
		extra[i].ID += 100000
		extra[i].Seq += 100000
	}
	st.Ingest(types.NewDataset(nil, extra))

	after := snap.Run(context.Background(), allEvents())
	if len(after) != len(before) {
		t.Fatalf("snapshot grew after ingest: %d -> %d events", len(before), len(after))
	}
	if snap.EventCount() != len(before) {
		t.Fatalf("snapshot EventCount = %d, want %d", snap.EventCount(), len(before))
	}
	if got := len(st.Run(context.Background(), allEvents())); got != 2*len(ds.Events) {
		t.Fatalf("store sees %d events after ingest, want %d", got, 2*len(ds.Events))
	}
	// A fresh snapshot sees the new world and a newer generation.
	snap2 := st.Snapshot()
	defer snap2.Close()
	if snap2.Generation() <= snap.Generation() {
		t.Fatalf("second snapshot generation %d not newer than %d", snap2.Generation(), snap.Generation())
	}
	if got := len(snap2.Run(context.Background(), allEvents())); got != 2*len(ds.Events) {
		t.Fatalf("fresh snapshot sees %d events, want %d", got, 2*len(ds.Events))
	}
}

// TestSnapshotIsolationAddEntity covers the entity-map COW path: entities
// registered after a snapshot must not appear in it (their events resolve
// to nil entities and are skipped).
func TestSnapshotIsolationAddEntity(t *testing.T) {
	st, _ := buildFixture(Options{})
	snap := st.Snapshot()
	defer snap.Close()

	novel := types.Entity{
		ID: 9999, Type: types.EntityProcess, AgentID: 1,
		Attrs: map[string]string{types.AttrExeName: "/bin/late"},
	}
	st.Ingest(&types.Dataset{Entities: []types.Entity{novel}})
	if snap.Entity(novel.ID) != nil {
		t.Fatal("snapshot sees an entity registered after acquisition")
	}
	if st.Entity(novel.ID) == nil {
		t.Fatal("store lost the newly registered entity")
	}
}

// TestOutOfOrderAddEvent verifies the deferred re-sort: a burst of
// out-of-order events is re-sorted once, at the end of its batch, and an
// older snapshot's already-sorted view is untouched by that sort.
func TestOutOfOrderAddEvent(t *testing.T) {
	st, _ := buildFixture(Options{})
	old := st.Snapshot()
	defer old.Close()
	oldEvents := old.Run(context.Background(), allEvents())

	proc := types.EntityID(1) // /bin/worker on agent 1 from the fixture
	file := types.EntityID(3)
	// Timestamps strictly decreasing: every append lands out of order.
	var burst []types.Event
	for k := 0; k < 50; k++ {
		burst = append(burst, types.Event{
			ID: types.EventID(50000 + k), AgentID: 1, Subject: proc, Object: file,
			Op: types.OpWrite, Start: int64(60_000 - k*100), Seq: uint64(50000 + k),
		})
	}
	st.Ingest(&types.Dataset{Events: burst})

	snap := st.Snapshot()
	defer snap.Close()
	out := snap.Run(context.Background(), &DataQuery{
		Agents: []int{1},
		Window: timeutil.Window{From: 1, To: timeutil.DayMillis},
		Ops:    types.NewOpSet(types.OpWrite),
	})
	for i := 1; i < len(out); i++ {
		if out[i].Event.Start < out[i-1].Event.Start {
			t.Fatalf("snapshot scan out of temporal order at %d: %d < %d",
				i, out[i].Event.Start, out[i-1].Event.Start)
		}
	}
	// The pre-existing snapshot still drains its original, ordered view.
	again := old.Run(context.Background(), allEvents())
	if len(again) != len(oldEvents) {
		t.Fatalf("old snapshot changed size: %d -> %d", len(oldEvents), len(again))
	}
	for i := range again {
		if again[i].Event.ID != oldEvents[i].Event.ID {
			t.Fatalf("old snapshot reordered at %d", i)
		}
	}
}

// TestDrainedMatchesSurviveResort: Match.Event pointers from a finished
// scan are interior pointers into a partition's events array and outlive
// the snapshot that produced them. A deferred re-sort after the snapshot
// closed must therefore copy the array, never reorder it in place.
func TestDrainedMatchesSurviveResort(t *testing.T) {
	st, _ := buildFixture(Options{})
	got := st.Run(context.Background(), allEvents()) // snapshot acquired and released inside
	ids := make([]types.EventID, len(got))
	for i, m := range got {
		ids[i] = m.Event.ID
	}
	// An out-of-order append marks the partition dirty; the end of its
	// batch runs the deferred sort.
	st.Ingest(&types.Dataset{Events: []types.Event{{
		ID: 777777, AgentID: 1, Subject: 1, Object: 3,
		Op: types.OpWrite, Start: 5, Seq: 999999,
	}}})
	snap := st.Snapshot()
	snap.Close()
	for i, m := range got {
		if m.Event.ID != ids[i] {
			t.Fatalf("retained match %d corrupted by re-sort: event ID %d -> %d", i, ids[i], m.Event.ID)
		}
	}
}

func TestScanMatchesRun(t *testing.T) {
	st, _ := buildFixture(Options{})
	queries := []*DataQuery{
		allEvents(),
		{Agents: []int{2}, SubjType: types.EntityProcess, ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite)},
		{Window: timeutil.DayWindow(1), Ops: types.AllOps()},
		// Exactly one surviving partition: one producer serves it.
		{Agents: []int{1}, Window: timeutil.DayWindow(0), Ops: types.AllOps()},
	}
	for qi, q := range queries {
		want := st.Run(context.Background(), q)
		cur := st.Scan(context.Background(), q)
		var got []Match
		batch := make([]Match, 7) // deliberately small, non-divisor batch
		for {
			n := cur.Next(batch)
			if n == 0 {
				break
			}
			got = append(got, batch[:n]...)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("query %d: cursor error: %v", qi, err)
		}
		cur.Close()
		if len(got) != len(want) {
			t.Fatalf("query %d: cursor %d matches, materialized %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Event.ID != want[i].Event.ID {
				t.Fatalf("query %d: order diverges at %d: %d vs %d", qi, i, got[i].Event.ID, want[i].Event.ID)
			}
		}
	}
}

// TestInlineScanLimitAndRelease covers a single-partition scan, which one
// producer serves: limit semantics and snapshot release.
func TestInlineScanLimitAndRelease(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := &DataQuery{Agents: []int{1}, Window: timeutil.DayWindow(0), Ops: types.AllOps(), Limit: 5}
	cur := st.Scan(context.Background(), q)
	got := Drain(cur)
	cur.Close()
	if len(got) != 5 {
		t.Fatalf("single-partition limited scan returned %d matches, want 5", len(got))
	}
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots live after single-partition scan", n)
	}
}

// TestSmallHotWalkMatchesPool: a posting walk over several hot partitions
// runs on one producer, and answers exactly — order and Limit included —
// as a range scan on Workers producers does.
func TestSmallHotWalkMatchesPool(t *testing.T) {
	walk, _ := buildFixture(Options{})
	pool, _ := buildFixture(Options{DisableIndexes: true})
	for _, limit := range []int{0, 70, 50, 3} {
		q := &DataQuery{
			SubjType: types.EntityProcess, SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "/bin/%worker"),
			ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite, types.OpRead), Limit: limit,
		}
		sn := walk.Snapshot()
		sp := &scanPlan{q: q, subjCand: sn.candidateSet(q.SubjType, q.SubjPred, nil), usePostings: true, fromSubject: true}
		if parts := sn.selectPartitions(q); len(parts) != 6 || !smallHotWalk(sp, parts) {
			t.Fatalf("fixture no longer gives a small hot walk over 6 partitions (%d)", len(parts))
		}
		sn.Close()
		got := walk.Run(context.Background(), q)
		want := pool.Run(context.Background(), q)
		if limit > 0 && len(want) != limit {
			t.Fatalf("limit %d: pool returned %d matches", limit, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("limit %d: walk %d matches, pool %d", limit, len(got), len(want))
		}
		for i := range got {
			if got[i].Event.ID != want[i].Event.ID {
				t.Fatalf("limit %d: order diverges at %d: %d vs %d", limit, i, got[i].Event.ID, want[i].Event.ID)
			}
		}
	}
	if n := walk.LiveCursors(); n != 0 {
		t.Fatalf("%d cursors live after the walks", n)
	}
}

// TestLimitedScanStopsClaiming: once the partitions claimed so far have
// produced Limit matches, no later partition can add to the answer, so no
// producer claims one. A lone producer scans partition 0, which meets the
// Limit alone, and stops there instead of running on until Close.
func TestLimitedScanStopsClaiming(t *testing.T) {
	var entities []types.Entity
	var events []types.Event
	for agent := 1; agent <= 4; agent++ {
		proc, file := types.EntityID(2*agent-1), types.EntityID(2*agent)
		entities = append(entities,
			types.Entity{ID: proc, Type: types.EntityProcess, AgentID: agent, Attrs: map[string]string{types.AttrExeName: "/bin/worker"}},
			types.Entity{ID: file, Type: types.EntityFile, AgentID: agent, Attrs: map[string]string{types.AttrName: "/data/log.txt"}})
		for day := 0; day < 3; day++ {
			for k := 0; k < 3000; k++ {
				n := len(events) + 1
				events = append(events, types.Event{
					ID: types.EventID(n), AgentID: agent, Subject: proc, Object: file,
					Op: types.OpWrite, Start: int64(day)*timeutil.DayMillis + int64(k), Seq: uint64(n),
				})
			}
		}
	}
	st := New(Options{Workers: 1})
	st.Ingest(types.NewDataset(entities, events))
	sn := st.Snapshot()
	if n := sn.PartitionCount(); n < 8 {
		t.Fatalf("fixture has %d partitions, want at least 8", n)
	}
	sn.Close()

	q := &DataQuery{SubjType: types.EntityProcess, ObjType: types.EntityFile, Ops: types.NewOpSet(types.OpWrite), Limit: 10}
	hotBatches := func(q *DataQuery) int64 {
		t.Helper()
		before := st.ScanStats()[HotBatches]
		cur := st.Scan(context.Background(), q)
		got := cur.Next(make([]Match, q.Limit))
		// A producer that ran on past the Limit would show in this pause.
		time.Sleep(5 * time.Millisecond)
		got += len(Drain(cur))
		cur.Close()
		if got != q.Limit {
			t.Fatalf("limited scan returned %d matches, want %d", got, q.Limit)
		}
		return st.ScanStats()[HotBatches] - before
	}
	first := *q
	first.Agents, first.Window = []int{1}, timeutil.DayWindow(0)
	want := hotBatches(&first)
	if want == 0 {
		t.Fatal("partition 0 alone ran no hot batch; the scan is not a range scan")
	}
	if got := hotBatches(q); got != want {
		t.Fatalf("limited scan ran %d hot batches, want partition 0's %d", got, want)
	}
}

func TestScanLimitStopsEarly(t *testing.T) {
	st, _ := buildFixture(Options{})
	q := allEvents()
	q.Limit = 10
	cur := st.Scan(context.Background(), q)
	defer cur.Close()
	got := Drain(cur)
	if len(got) != 10 {
		t.Fatalf("limited scan returned %d matches, want 10", len(got))
	}
	// Limit semantics must match the materialized path.
	want := st.Run(context.Background(), q)
	if len(want) != 10 {
		t.Fatalf("materialized limited run returned %d matches, want 10", len(want))
	}
	for i := range got {
		if got[i].Event.ID != want[i].Event.ID {
			t.Fatalf("limited scan diverges at %d", i)
		}
	}
}

func TestScanCancel(t *testing.T) {
	st, _ := buildFixture(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cur := st.Scan(ctx, allEvents())
	defer cur.Close()
	batch := make([]Match, 8)
	if n := cur.Next(batch); n == 0 {
		t.Fatal("expected at least one batch before cancel")
	}
	cancel()
	for i := 0; i < 1000; i++ {
		if cur.Next(batch) == 0 {
			break
		}
	}
	if cur.Next(batch) != 0 {
		t.Fatal("cursor kept producing long after cancellation")
	}
	if err := cur.Err(); err != context.Canceled {
		t.Fatalf("cursor error = %v, want context.Canceled", err)
	}
	// The snapshot auto-acquired by Scan must have been released.
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots leaked after canceled scan", n)
	}
}

func TestScanReleasesSnapshot(t *testing.T) {
	st, _ := buildFixture(Options{})
	// Exhaustion releases.
	cur := st.Scan(context.Background(), allEvents())
	Drain(cur)
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots live after exhaustion", n)
	}
	cur.Close() // double close is fine
	// Early Close releases.
	cur = st.Scan(context.Background(), allEvents())
	cur.Close()
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots live after early close", n)
	}
}

func TestMultiCursor(t *testing.T) {
	st, _ := buildFixture(Options{})
	q1 := &DataQuery{Agents: []int{1}, Ops: types.AllOps()}
	q2 := &DataQuery{Agents: []int{2}, Ops: types.AllOps()}
	want := len(st.Run(context.Background(), q1)) + len(st.Run(context.Background(), q2))
	mc := NewMultiCursor(0,
		st.Scan(context.Background(), q1),
		st.Scan(context.Background(), q2))
	got := Drain(mc)
	mc.Close()
	if len(got) != want {
		t.Fatalf("multi cursor drained %d, want %d", len(got), want)
	}
	mc = NewMultiCursor(5,
		st.Scan(context.Background(), q1),
		st.Scan(context.Background(), q2))
	if got := Drain(mc); len(got) != 5 {
		t.Fatalf("limited multi cursor drained %d, want 5", len(got))
	}
	mc.Close()
	if n := st.LiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots leaked through multi cursor", n)
	}
}

// TestConcurrentIngestQuery hammers Ingest from one goroutine while query
// goroutines repeatedly snapshot and drain full scans. Every query must see
// an internally consistent view: the match count implied by its snapshot's
// generation, never a torn batch. Run with -race this also proves the
// copy-on-write mutation path publishes no unsynchronized memory.
func TestConcurrentIngestQuery(t *testing.T) {
	const (
		batches   = 40
		batchSize = 64
		readers   = 4
	)
	st, ds := buildFixture(Options{})
	base := len(ds.Events)
	baseGen := st.Generation() // 1, from the fixture's Ingest

	proc := types.EntityID(1)
	file := types.EntityID(3)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := types.EventID(1_000_000)
		for i := 0; i < batches; i++ {
			evs := make([]types.Event, batchSize)
			for k := range evs {
				next++
				evs[k] = types.Event{
					ID: next, AgentID: 1, Subject: proc, Object: file,
					Op: types.OpWrite, Start: int64(i*1000 + k), Seq: uint64(next),
				}
			}
			st.Ingest(types.NewDataset(nil, evs))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				snap := st.Snapshot()
				gen := snap.Generation()
				got := len(snap.Run(context.Background(), allEvents()))
				want := base + int(gen-baseGen)*batchSize
				if got != want {
					t.Errorf("generation %d: snapshot drained %d matches, want %d", gen, got, want)
				}
				if snap.EventCount() != want {
					t.Errorf("generation %d: EventCount %d, want %d", gen, snap.EventCount(), want)
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()

	if st.LiveSnapshots() != 0 {
		t.Fatalf("%d snapshots leaked", st.LiveSnapshots())
	}
	finalWant := base + batches*batchSize
	if got := st.EventCount(); got != finalWant {
		t.Fatalf("final event count %d, want %d", got, finalWant)
	}
	if got := len(st.Run(context.Background(), allEvents())); got != finalWant {
		t.Fatalf("final scan %d matches, want %d", got, finalWant)
	}
}
