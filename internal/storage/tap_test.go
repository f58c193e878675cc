package storage

import (
	"sync"
	"testing"

	"aiql/internal/types"
	"aiql/internal/wal"
)

// TestIngestObserverSeesBatchesInOrder drives concurrent ingest through a
// tapped store and asserts the observer contract: every batch is observed
// exactly once, post-apply, with strictly increasing generations, and the
// store already contains the batch when the observer runs.
func TestIngestObserverSeesBatchesInOrder(t *testing.T) {
	st := New(Options{})
	var mu sync.Mutex
	var gens []uint64
	var events int
	st.SetIngestObserver(func(d *types.Dataset, gen uint64) {
		mu.Lock()
		defer mu.Unlock()
		gens = append(gens, gen)
		events += len(d.Events)
		// Post-apply: the store must already hold at least the observed
		// events (never fewer — the batch applied before the call).
		if st.EventCount() < events {
			t.Errorf("observer ran pre-apply: store has %d events, observed %d", st.EventCount(), events)
		}
	})

	const workers, batches = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				id := types.EntityID(1 + w*batches + b)
				st.Ingest(types.NewDataset(
					[]types.Entity{
						{ID: id, Type: types.EntityProcess, AgentID: w, Attrs: map[string]string{types.AttrExeName: "/bin/x"}},
						{ID: id + 10000, Type: types.EntityFile, AgentID: w, Attrs: map[string]string{types.AttrName: "/tmp/y"}},
					},
					[]types.Event{{ID: types.EventID(id), AgentID: w, Subject: id, Object: id + 10000, Op: types.OpRead, Start: int64(b) * 1000}},
				))
			}
		}(w)
	}
	wg.Wait()

	if len(gens) != workers*batches {
		t.Fatalf("observed %d batches, ingested %d", len(gens), workers*batches)
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("generations out of order at %d: %d then %d", i, gens[i-1], gens[i])
		}
	}
	if events != workers*batches {
		t.Errorf("observed %d events, ingested %d", events, workers*batches)
	}
}

// TestIngestObserverSingleRecordPaths covers tapping of one-record batches:
// each is observed with exactly its record.
func TestIngestObserverSingleRecordPaths(t *testing.T) {
	st := New(Options{})
	var seen []string
	st.SetIngestObserver(func(d *types.Dataset, gen uint64) {
		if len(d.Entities) == 1 {
			seen = append(seen, "entity")
		}
		if len(d.Events) == 1 {
			seen = append(seen, "event")
		}
	})
	st.Ingest(&types.Dataset{Entities: []types.Entity{{ID: 1, Type: types.EntityProcess, AgentID: 1}}})
	st.Ingest(&types.Dataset{Entities: []types.Entity{{ID: 2, Type: types.EntityFile, AgentID: 1}}})
	st.Ingest(&types.Dataset{Events: []types.Event{{ID: 1, AgentID: 1, Subject: 1, Object: 2, Op: types.OpWrite}}})
	if len(seen) != 3 || seen[0] != "entity" || seen[1] != "entity" || seen[2] != "event" {
		t.Fatalf("observer saw %v, want [entity entity event]", seen)
	}
	// Removing the observer stops notifications.
	st.SetIngestObserver(nil)
	st.Ingest(&types.Dataset{Events: []types.Event{{ID: 2, AgentID: 1, Subject: 1, Object: 2, Op: types.OpRead}}})
	if len(seen) != 3 {
		t.Fatalf("observer ran after removal: %v", seen)
	}
}

// TestIngestObserverFiresUnderDurableIngest asserts the durable path routes
// through the tap with the same batch boundary the WAL uses: one
// notification per acknowledged Ingest, in journal order.
func TestIngestObserverFiresUnderDurableIngest(t *testing.T) {
	p, err := OpenPersistent(t.TempDir(), PersistOptions{
		FlushInterval:   -1,
		CompactInterval: -1,
		WAL:             wal.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var batches int
	p.Store.SetIngestObserver(func(d *types.Dataset, gen uint64) { batches++ })
	for i := 0; i < 3; i++ {
		id := types.EntityID(100 + i)
		err := p.Ingest(types.NewDataset(
			[]types.Entity{{ID: id, Type: types.EntityProcess, AgentID: 1}},
			[]types.Event{{ID: types.EventID(i + 1), AgentID: 1, Subject: id, Object: id, Op: types.OpStart, Start: int64(i)}},
		))
		if err != nil {
			t.Fatal(err)
		}
	}
	if batches != 3 {
		t.Fatalf("observer saw %d batches, durable path acknowledged 3", batches)
	}
}
