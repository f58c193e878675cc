package backendtest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aiql/internal/graphstore"
	"aiql/internal/mpp"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// TestDataQueryPathsMatchAdmits holds every way a data query is answered
// to DataQuery.Admits, the query's row definition, applied to every event
// of the dataset: the hot columnar scan, the posting walk, ForceScan, a
// tiered store (cold segments under a hot tail) and the graph baseline.
// The queries are the random suites' patterns, each also widened to the
// whole dataset, with a random home-shard Partition and random allowed
// sets added.
func TestDataQueryPathsMatchAdmits(t *testing.T) {
	for si, s := range suites() {
		if !strings.HasPrefix(s.Name, "random-") {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(si)))
			paths := admitPaths(t, s.Data)
			ents := make(map[types.EntityID]*types.Entity, len(s.Data.Entities))
			for i := range s.Data.Entities {
				ents[s.Data.Entities[i].ID] = &s.Data.Entities[i]
			}
			checked := 0
			for _, c := range s.Cases {
				plan, err := compile(c.Src)
				if err != nil || plan.Slide != nil {
					continue
				}
				for pi, pp := range plan.Patterns {
					for variant := 0; variant < 4; variant++ {
						q := pp.DataQuery()
						if variant&1 != 0 {
							q.Agents, q.Window = nil, timeutil.Window{}
						}
						if variant&2 != 0 {
							q.SubjAllowed = randomIDs(rng, len(s.Data.Entities))
							if rng.Intn(2) == 0 {
								q.ObjAllowed = randomIDs(rng, len(s.Data.Entities))
							}
						}
						if rng.Intn(4) > 0 {
							q.Partition = mpp.HomePartitions(rng.Intn(3), 3)
						}
						var want []types.EventID
						for i := range s.Data.Events {
							ev := &s.Data.Events[i]
							if q.Admits(ev, ents[ev.Subject], ents[ev.Object]) {
								want = append(want, ev.ID)
							}
						}
						slices.Sort(want)
						id := fmt.Sprintf("%s pattern %d variant %d (partition %t)", c.ID, pi, variant, q.Partition != nil)
						postingHot := paths[1].st.ScanStats()[storage.HotBatches]
						for _, p := range paths {
							if got := p.run(q); !slices.Equal(got, want) {
								t.Errorf("%s: %s returned %d events, Admits %d\n%s", id, p.name, len(got), len(want), c.Src)
							}
						}
						if q.SubjAllowed != nil && paths[1].st.ScanStats()[storage.HotBatches] != postingHot {
							t.Fatalf("%s: a query with an allowed set took the hot columnar path, not the posting walk", id)
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no query checked")
			}
			if paths[0].st.ScanStats()[storage.HotBatches] == 0 {
				t.Error("the hot columnar path scanned no batch")
			}
			if paths[3].st.ScanStats()[storage.BlocksConsidered] == 0 {
				t.Error("the tiered store considered no cold block")
			}
		})
	}
}

// admitPath answers a data query one way, as sorted event ids.
type admitPath struct {
	name string
	st   *storage.Store // nil for the graph baseline
	run  func(q *storage.DataQuery) []types.EventID
}

// admitPaths builds the answering paths over ds. The hot columnar path is
// a store without indexes, so it resolves no candidate set and walks no
// posting list; the posting walk is an indexed store, which walks postings
// whenever an allowed set bounds a side.
func admitPaths(t *testing.T, ds *types.Dataset) []admitPath {
	ctx := context.Background()
	storeRun := func(st *storage.Store, force bool) func(q *storage.DataQuery) []types.EventID {
		return func(q *storage.DataQuery) []types.EventID {
			fq := *q
			fq.ForceScan = force
			return matchIDs(st.Run(ctx, &fq))
		}
	}
	columnar := storage.New(storage.Options{DisableIndexes: true}) // no candidate sets, no postings
	columnar.Ingest(ds)
	indexed := storage.New(storage.Options{})
	indexed.Ingest(ds)

	// Tiered: the first half of the events sealed into segments and read
	// back cold, the second half ingested hot on top.
	dir := t.TempDir()
	popts := storage.PersistOptions{FlushInterval: -1, CompactInterval: -1}
	w, err := storage.OpenPersistent(dir, popts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Events) / 2
	if err := w.Ingest(types.NewDataset(ds.Entities, ds.Events[:half])); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tiered, err := storage.OpenPersistent(dir, popts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tiered.Close() })
	if err := tiered.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Ingest(types.NewDataset(nil, ds.Events[half:])); err != nil {
		t.Fatal(err)
	}

	g := graphstore.New()
	g.Ingest(ds)
	return []admitPath{
		{"hot columnar", columnar, storeRun(columnar, false)},
		{"posting walk", indexed, storeRun(indexed, false)},
		{"ForceScan", indexed, storeRun(indexed, true)},
		{"tiered", tiered.Store, storeRun(tiered.Store, false)},
		{"graphstore", nil, func(q *storage.DataQuery) []types.EventID { return matchIDs(g.Run(ctx, q)) }},
	}
}

// randomIDs is an allowed set of up to 40 entity ids, some of them past
// the dataset's last id.
func randomIDs(rng *rand.Rand, n int) map[types.EntityID]struct{} {
	set := make(map[types.EntityID]struct{})
	for k := 1 + rng.Intn(40); k > 0; k-- {
		set[types.EntityID(1+rng.Intn(n+5))] = struct{}{}
	}
	return set
}

func matchIDs(ms []storage.Match) []types.EventID {
	ids := make([]types.EventID, len(ms))
	for i, m := range ms {
		ids[i] = m.Event.ID
	}
	slices.Sort(ids)
	return ids
}
