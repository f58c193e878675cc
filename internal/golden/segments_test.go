package golden

import (
	"fmt"
	"math/rand"
	"testing"

	"aiql/internal/bench"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// buildSegmentedDir ingests the reference scenario into dir in two halves,
// compacting each into a segment, so the directory ends with two segments
// covering the same (agent, day) partitions and an empty WAL.
func buildSegmentedDir(t *testing.T, dir string) {
	t.Helper()
	ds := gen.Scenario(gen.SmallConfig())
	batches := bench.SplitBatches(ds, 4)
	for _, bs := range [][]*types.Dataset{batches[:2], batches[2:]} {
		p, err := storage.OpenPersistent(dir, storage.PersistOptions{
			SyncEveryBatch: true, FlushInterval: -1, CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WarmUp(); err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if err := p.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentFormatsAnswerGoldenCorpus reopens a store recovered purely from
// two segments and requires it to answer the full golden corpus exactly like
// the uninterrupted in-memory reference. Half the scenario's (agent, day)
// partitions span both segments, which drives the install hand-off: the
// second segment's run appends to the cold prefix the first one started.
//
// The subtest keeps the name "v2-only" from when the v1 row format existed
// beside it: v2 names the columnar family, whose current member is the only
// format the compactor writes.
func TestSegmentFormatsAnswerGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-segment corpus run")
	}
	t.Run("v2-only", func(t *testing.T) {
		dir := t.TempDir()
		buildSegmentedDir(t, dir)
		re, err := storage.OpenPersistent(dir, storage.PersistOptions{
			SyncEveryBatch: true, FlushInterval: -1, CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if err := re.WarmUp(); err != nil {
			t.Fatal(err)
		}
		if st := re.DurabilityStats(); st.Segments != 2 || st.WALRecords != 0 {
			t.Fatalf("segments = %d, WAL records = %d; want 2 segments and an empty WAL", st.Segments, st.WALRecords)
		}
		ref := goldenEngine()
		eng := engine.New(re.Store, engine.Options{})
		for _, q := range allQueries() {
			wantRes, err := ref.Query(q.Src)
			if err != nil {
				t.Fatalf("%s on reference store: %v", q.ID, err)
			}
			gotRes, err := eng.Query(q.Src)
			if err != nil {
				t.Fatalf("%s on segment store: %v", q.ID, err)
			}
			if !equalStrings(gotRes.Columns, wantRes.Columns) {
				t.Errorf("%s: columns %v, want %v", q.ID, gotRes.Columns, wantRes.Columns)
				continue
			}
			if !equalRows(sortedRows(gotRes.Rows), sortedRows(wantRes.Rows)) {
				t.Errorf("%s: segment store returned %d rows, reference %d — result sets differ",
					q.ID, len(gotRes.Rows), len(wantRes.Rows))
			}
		}
	})
}

// TestZoneMapPruningDifferential runs the shared random-query distribution
// against the same segment directory with zone-map pruning enabled and
// disabled. Every query must return the identical row set, and the pruning
// run's counters must prove blocks were actually skipped — the two halves
// of "pruning is free": no rows lost, real work saved.
func TestZoneMapPruningDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: pruning differential run")
	}
	dir := t.TempDir()
	buildSegmentedDir(t, dir)

	// The shared random distribution covers the semantic space at day
	// granularity; partition selection alone handles day windows, so a set
	// of narrow sub-day windows rides along to exercise block-level time
	// pruning — the case only zone maps can serve.
	rng := rand.New(rand.NewSource(42))
	var srcs []string
	for i := 0; i < 40; i++ {
		srcs = append(srcs, queries.Random(rng))
	}
	for i := 0; i < 20; i++ {
		day := 1 + rng.Intn(3)
		h := rng.Intn(22)
		srcs = append(srcs, fmt.Sprintf(
			"agentid = %d\n(from \"03/%02d/2017 %02d:00\" to \"03/%02d/2017 %02d:%02d\")\n"+
				"proc p read || write file f as evt\nreturn distinct p, f\nsort by p",
			1+rng.Intn(5), day, h, day, h+1+rng.Intn(2), rng.Intn(60)))
	}

	run := func(disablePruning bool) ([]string, storage.ScanStats) {
		t.Helper()
		opts := storage.PersistOptions{
			SyncEveryBatch: true, FlushInterval: -1, CompactInterval: -1,
			Store: storage.Options{DisableZoneMaps: disablePruning},
		}
		p, err := storage.OpenPersistent(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.WarmUp(); err != nil {
			t.Fatal(err)
		}
		eng := engine.New(p.Store, engine.Options{})
		out := make([]string, len(srcs))
		for i, src := range srcs {
			res, err := eng.Query(src)
			if err != nil {
				t.Fatalf("query %d (pruning disabled=%v): %v\n%s", i, disablePruning, err, src)
			}
			out[i] = queries.Canonical(res.Rows)
		}
		return out, p.Store.ScanStats()
	}

	prunedRows, prunedStats := run(false)
	exhaustiveRows, exhaustiveStats := run(true)

	for i := range srcs {
		if prunedRows[i] != exhaustiveRows[i] {
			t.Errorf("query %d: pruning changed the result set\n%s", i, srcs[i])
		}
	}
	if prunedStats[storage.BlocksSkipped] == 0 {
		t.Fatal("pruning run skipped no blocks — zone maps are not engaged")
	}
	if exhaustiveStats[storage.BlocksSkipped] != 0 {
		t.Fatalf("pruning-disabled run skipped %d blocks, want 0", exhaustiveStats[storage.BlocksSkipped])
	}
	if prunedStats[storage.BlocksDecoded] >= exhaustiveStats[storage.BlocksDecoded] {
		t.Fatalf("pruned run decoded %d blocks, exhaustive %d — pruning saved nothing",
			prunedStats[storage.BlocksDecoded], exhaustiveStats[storage.BlocksDecoded])
	}
}
