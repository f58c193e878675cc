package golden

import (
	"fmt"
	"math/rand"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/refeval"
	"aiql/internal/storage"
)

// TestHotColdScanDifferential holds the batch scan paths to the reference
// evaluator: the same scenario answered (a) hot through the columnar
// shadows and (b) cold from compressed segments must produce the reference
// result sets over the shared random-query distribution — and the counters
// must prove each store really took its intended path.
func TestHotColdScanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: scan-path differential run")
	}
	ds := gen.Scenario(gen.SmallConfig())

	hot := storage.New(storage.Options{})
	hot.Ingest(ds)
	ref := refeval.New(ds)

	// Ingest and compact in one incarnation, then reopen: recovery installs
	// the segments as cold runs, so every event answer below comes off disk.
	dir := t.TempDir()
	popts := storage.PersistOptions{
		SyncEveryBatch: true, FlushInterval: -1, CompactInterval: -1,
	}
	w, err := storage.OpenPersistent(dir, popts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(ds); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	p, err := storage.OpenPersistent(dir, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if st := p.DurabilityStats(); st.Segments == 0 {
		t.Fatalf("cold store has no segments: %+v", st)
	}

	engines := map[string]*engine.Engine{
		"hot-columnar": engine.New(hot, engine.Options{}),
		"cold":         engine.New(p.Store, engine.Options{}),
	}

	// The shared random distribution works at day granularity, which
	// partition selection alone can serve; narrow sub-day windows ride along
	// so block-level zone pruning has something to prove.
	rng := rand.New(rand.NewSource(7))
	var srcs []string
	for i := 0; i < 60; i++ {
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
	for i, src := range srcs {
		want, err := ref.Query(src)
		if err != nil {
			t.Fatalf("query %d on the reference evaluator: %v\n%s", i, err, src)
		}
		for _, name := range []string{"hot-columnar", "cold"} {
			res, err := engines[name].Query(src)
			if err != nil {
				t.Fatalf("query %d on %s: %v\n%s", i, name, err, src)
			}
			if err := want.Check(res.Columns, res.Rows); err != nil {
				t.Errorf("query %d: %s disagrees with the reference evaluator: %v\n%s", i, name, err, src)
			}
		}
	}

	hs := hot.ScanStats()
	if hs[storage.HotBatches] == 0 || hs[storage.DictVerdictHits] == 0 {
		t.Fatalf("hot-columnar store never used the batch path: %+v", hs)
	}
	cs := p.Store.ScanStats()
	if cs[storage.CompressedBytesRead] == 0 || cs[storage.CompressedBytesDecoded] == 0 {
		t.Fatalf("cold store never decoded compressed blocks: %+v", cs)
	}
	if cs[storage.BlocksSkipped] == 0 {
		t.Fatalf("cold store pruned nothing across the whole distribution: %+v", cs)
	}
}
