package storage_test

import (
	"context"
	"math/rand"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/parser"
	"aiql/internal/pred"
	"aiql/internal/queries"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// uniformAgent is a host whose partition repeats one (subject, object, op)
// triple, so its blocks carry width-0 packed dictionary columns.
const uniformAgent = 90

// coldPropDataset is a small generated scenario with a randomized partition
// size (one to three blocks per (agent, day)) plus the uniform partition.
func coldPropDataset(seed int64) *types.Dataset {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.SmallConfig()
	cfg.Seed = seed
	cfg.BackgroundPerHostDay = 600 + rng.Intn(2000)
	ds := gen.Scenario(cfg)

	entities := append([]types.Entity(nil), ds.Entities...)
	events := append([]types.Event(nil), ds.Events...)
	proc := types.Entity{ID: 9_000_001, Type: types.EntityProcess, AgentID: uniformAgent,
		Attrs: map[string]string{types.AttrExeName: "/usr/bin/uniformd"}}
	file := types.Entity{ID: 9_000_002, Type: types.EntityFile, AgentID: uniformAgent,
		Attrs: map[string]string{types.AttrName: "/var/log/uniform.log"}}
	entities = append(entities, proc, file)
	base := gen.DayStart(1)
	for i := 0; i < 2500; i++ {
		t := base + int64(i)*20_000 + int64(rng.Intn(3))
		events = append(events, types.Event{
			ID: types.EventID(8_000_000 + i), AgentID: uniformAgent,
			Subject: proc.ID, Object: file.ID, Op: types.OpRead,
			Start: t, End: t + int64(rng.Intn(50)), Seq: uint64(8_000_000 + i),
			Amount: int64(rng.Intn(70_000)), FailCode: rng.Intn(3) - 1,
		})
	}
	return types.NewDataset(entities, events)
}

// compactInto ingests ds into a fresh durable store under dir and folds it
// into one segment.
func compactInto(t *testing.T, dir string, ds *types.Dataset) {
	t.Helper()
	p, err := storage.OpenPersistent(dir, storage.PersistOptions{FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ds); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenCold reopens dir so every event is served from cold runs.
func reopenCold(t *testing.T, dir string, opts storage.Options) *storage.Persistent {
	t.Helper()
	p, err := storage.OpenPersistent(dir, storage.PersistOptions{Store: opts, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if st := p.DurabilityStats(); st.Segments == 0 {
		t.Fatalf("store has no segments to serve cold: %+v", st)
	}
	return p
}

// randomColdQueries draws data queries from the patterns of queries.Random
// and bends them toward the cold scan's branches: all-hosts hunts, windows
// whose edges fall inside blocks or exactly on their ends, event predicates the batch kernel takes
// and one it refuses, scheduler-style allowed sets small enough for the
// posting path, and limits.
func randomColdQueries(t *testing.T, rng *rand.Rand, events []types.Event, n int) []*storage.DataQuery {
	t.Helper()
	// events are in scan order, so a block is 1024 consecutive rows of one
	// (agent, day) run; blocks collects every block's first and last event.
	type span struct{ first, last *types.Event }
	var blocks []span
	var edges []int64
	for i, row := 0, 0; i < len(events); i, row = i+1, row+1 {
		if i > 0 && (events[i].AgentID != events[i-1].AgentID ||
			timeutil.DayIndex(events[i].Start) != timeutil.DayIndex(events[i-1].Start)) {
			row = 0
		}
		if row%1024 == 0 {
			if len(blocks) > 0 {
				blocks[len(blocks)-1].last = &events[i-1]
			}
			blocks = append(blocks, span{first: &events[i]})
		}
	}
	blocks[len(blocks)-1].last = &events[len(events)-1]
	for _, b := range blocks {
		edges = append(edges, b.first.Start, b.last.Start)
	}
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return events[rng.Intn(len(events))].Start
	}
	var out []*storage.DataQuery
	for len(out) < n {
		ast, err := parser.Parse(queries.Random(rng))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.Compile(ast)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range plan.Patterns {
			q := pp.DataQuery()
			if rng.Intn(2) == 0 {
				q.Agents = nil
			}
			switch rng.Intn(3) {
			case 0:
				q.Window = timeutil.Window{}
			case 1:
				a, b := pick(), pick()
				if a > b {
					a, b = b, a
				}
				q.Window = timeutil.Window{From: a + int64(rng.Intn(2)), To: b + 1 + int64(rng.Intn(2))}
			}
			switch rng.Intn(4) {
			case 0:
				q.EvtPred = pred.NewCond(types.EvtAttrAmount, pred.CmpGt, "30000")
			case 1:
				// A LIKE over a numeric column: BatchEval refuses it.
				q.EvtPred = pred.NewCond(types.EvtAttrAmount, pred.CmpEq, "6%")
			case 2:
				q.EvtPred = pred.AndOf(
					pred.NewCond(types.EvtAttrAmount, pred.CmpLe, "50000"),
					pred.NewCond(types.EvtAttrOpType, pred.CmpNe, "write"),
					pred.NewCond(types.EvtAttrEnd, pred.CmpGe, "0"))
			}
			if rng.Intn(4) == 0 {
				allowed := make(map[types.EntityID]struct{})
				for k := 1 + rng.Intn(6); k > 0; k-- {
					ev := &events[rng.Intn(len(events))]
					if rng.Intn(2) == 0 {
						allowed[ev.Subject] = struct{}{}
					} else {
						allowed[ev.Object] = struct{}{}
					}
				}
				if rng.Intn(2) == 0 {
					q.SubjAllowed = allowed
				} else {
					q.ObjAllowed = allowed
				}
			}
			if rng.Intn(4) == 0 {
				q.Limit = 1 + rng.Intn(40)
			}
			out = append(out, q)
		}
	}
	// Windows that begin or end exactly on a block's last start, over a query
	// every row of that block matches.
	for k := 0; k < 12; k++ {
		b := blocks[rng.Intn(len(blocks))]
		agents := []int{b.first.AgentID}
		out = append(out,
			&storage.DataQuery{Agents: agents, Ops: types.AllOps(),
				Window: timeutil.Window{From: b.last.Start, To: b.last.Start + 1}},
			&storage.DataQuery{Agents: agents, Ops: types.AllOps(),
				Window: timeutil.Window{From: b.first.Start, To: b.last.Start}})
	}
	// The uniform partition: width-0 subject and object columns, one op.
	day := gen.DayStart(1)
	for _, q := range []*storage.DataQuery{
		{Agents: []int{uniformAgent}, Ops: types.AllOps()},
		{Agents: []int{uniformAgent}, Ops: types.NewOpSet(types.OpWrite)},
		{Ops: types.NewOpSet(types.OpRead), SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%uniformd"),
			EvtPred:  pred.NewCond(types.EvtAttrAmount, pred.CmpGt, "69000")},
		{Agents: []int{uniformAgent}, Ops: types.AllOps(), ObjType: types.EntityProcess},
		{Agents: []int{uniformAgent}, Ops: types.AllOps(), Limit: 7,
			Window:  timeutil.Window{From: day + 1024*20_000 - 50_000, To: day + 1024*20_000 + 50_000},
			EvtPred: pred.NewCond(types.EvtAttrFailCode, pred.CmpEq, "-1")},
	} {
		out = append(out, q)
	}
	return out
}

// TestColdScanMatchesFullDecode is the lazy decoder's property test: over
// randomized small partitions and the query distribution above, scanCold —
// zone pruning, packed-column filtering, on-demand column decode, posting
// probes, early stop — must return exactly the rows, in order, that a
// row-by-row filter finds in the fully decoded runs.
func TestColdScanMatchesFullDecode(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ds := coldPropDataset(seed)
		dir := t.TempDir()
		compactInto(t, dir, ds)
		var qs []*storage.DataQuery
		var ref []types.Event
		for _, opts := range []storage.Options{{}, {DisableZoneMaps: true}, {DisableIndexes: true}} {
			p := reopenCold(t, dir, opts)
			if ref == nil {
				var err error
				if ref, err = p.Store.DecodeCold(); err != nil {
					t.Fatal(err)
				}
				if len(ref) != len(ds.Events) {
					t.Fatalf("full decode returned %d events, want %d", len(ref), len(ds.Events))
				}
				qs = randomColdQueries(t, rand.New(rand.NewSource(seed)), ref, 120)
			}
			before := p.Store.ScanStats()
			for qi, q := range qs {
				want := storage.RefScan(p.Store, q, ref)
				qc := *q
				c := p.Store.Scan(context.Background(), &qc)
				got := storage.Drain(c)
				if err := c.Err(); err != nil {
					t.Fatalf("seed %d opts %+v query %d: %v", seed, opts, qi, err)
				}
				c.Close()
				if len(got) != len(want) {
					t.Fatalf("seed %d opts %+v query %d (%+v): %d matches, want %d", seed, opts, qi, q, len(got), len(want))
				}
				for i := range got {
					if *got[i].Event != want[i] {
						t.Fatalf("seed %d opts %+v query %d match %d: %+v, want %+v", seed, opts, qi, i, *got[i].Event, want[i])
					}
					if got[i].Subj == nil || got[i].Subj.ID != want[i].Subject || got[i].Obj == nil || got[i].Obj.ID != want[i].Object {
						t.Fatalf("seed %d opts %+v query %d match %d: wrong resolved entities", seed, opts, qi, i)
					}
				}
			}
			// The distribution must actually reach the branches it is for.
			after := p.Store.ScanStats()
			if after[storage.HotBatches] != before[storage.HotBatches] {
				t.Fatalf("scans touched hot data: %+v", after)
			}
			if after[storage.BlocksFiltered] == before[storage.BlocksFiltered] || after[storage.ValueColumnsDecoded] == before[storage.ValueColumnsDecoded] {
				t.Fatalf("opts %+v: packed filter or lazy decode never engaged: %+v", opts, after)
			}
			if opened := after[storage.BlocksDecoded] - before[storage.BlocksDecoded]; after[storage.ValueColumnsDecoded]-before[storage.ValueColumnsDecoded] >= 6*opened {
				t.Fatalf("opts %+v: %d value columns for %d opened blocks — nothing was left encoded", opts, after[storage.ValueColumnsDecoded]-before[storage.ValueColumnsDecoded], opened)
			}
			if got, want := after[storage.BlocksDecoded]+after[storage.BlocksSkipped], after[storage.BlocksConsidered]; got != want {
				t.Fatalf("opts %+v: decoded+skipped = %d, considered = %d", opts, got, want)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
