package backendtest_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"aiql/internal/backendtest"
	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/graphstore"
	"aiql/internal/mpp"
	"aiql/internal/queries"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// memory opens an in-memory store with the given storage options under an
// engine with the given engine options.
func memory(sopts storage.Options, eopts engine.Options) backendtest.Open {
	return func(t testing.TB, ds *types.Dataset) *engine.Engine {
		st := storage.New(sopts)
		st.Ingest(ds)
		return engine.New(st, eopts)
	}
}

// cold ingests into a durable store, compacts it into segments and reopens
// it, so every event is read back from the cold columnar runs.
func cold(sopts storage.Options) backendtest.Open {
	return func(t testing.TB, ds *types.Dataset) *engine.Engine {
		dir := t.TempDir()
		popts := storage.PersistOptions{Store: sopts, FlushInterval: -1, CompactInterval: -1}
		w, err := storage.OpenPersistent(dir, popts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Ingest(ds); err != nil {
			t.Fatal(err)
		}
		if err := w.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		p, err := storage.OpenPersistent(dir, popts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if err := p.WarmUp(); err != nil {
			t.Fatal(err)
		}
		if st := p.DurabilityStats(); st.Segments == 0 {
			t.Fatalf("reopened store holds no segments: %+v", st)
		}
		return engine.New(p.Store, engine.Options{})
	}
}

func TestConformanceMemoryStore(t *testing.T) {
	backendtest.Conformance(t, memory(storage.Options{}, engine.Options{}))
}

func TestConformanceColdStore(t *testing.T) {
	backendtest.Conformance(t, cold(storage.Options{}))
}

func TestConformanceMPP(t *testing.T) {
	for _, pl := range []mpp.Placement{mpp.ArrivalOrder, mpp.SemanticsAware} {
		t.Run(pl.String(), func(t *testing.T) {
			backendtest.Conformance(t, func(t testing.TB, ds *types.Dataset) *engine.Engine {
				c := mpp.New(4, pl, storage.Options{})
				c.Ingest(ds)
				return engine.New(c, engine.Options{})
			})
		})
	}
}

func TestConformanceGraphStore(t *testing.T) {
	backendtest.Conformance(t, func(t testing.TB, ds *types.Dataset) *engine.Engine {
		g := graphstore.New()
		g.Ingest(ds)
		return engine.New(g, engine.Options{NoHashJoin: true, ApplyJoin: true})
	})
}

// TestConformanceCoordinator runs the networked tier in process: three
// store-backed workers behind a coordinator at two replicas, loaded
// through the coordinator's scatter ingest.
func TestConformanceCoordinator(t *testing.T) {
	backendtest.Conformance(t, func(t testing.TB, ds *types.Dataset) *engine.Engine {
		urls := make([]string, 3)
		for i := range urls {
			st := storage.New(storage.Options{})
			s := server.New(st, engine.New(st, engine.Options{}), server.Options{})
			s.SetShard(i)
			srv := httptest.NewServer(s.Handler())
			t.Cleanup(srv.Close)
			urls[i] = srv.URL
		}
		coord, err := cluster.New(urls, cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Ingest(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		return engine.New(coord, engine.Options{})
	})
}

// TestStreamConformance holds the live rule tap, over the memory store and
// the durable store's WAL-first ingest, to the reference evaluator.
func TestStreamConformance(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		backendtest.StreamConformance(t, func(t testing.TB) (*storage.Store, func(*types.Dataset) error) {
			st := storage.New(storage.Options{})
			return st, func(ds *types.Dataset) error { st.Ingest(ds); return nil }
		})
	})
	t.Run("persistent", func(t *testing.T) {
		backendtest.StreamConformance(t, func(t testing.TB) (*storage.Store, func(*types.Dataset) error) {
			p, err := storage.OpenPersistent(t.TempDir(), storage.PersistOptions{FlushInterval: -1, CompactInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p.Store, p.Ingest
		})
	})
}

func TestConformanceStrategies(t *testing.T) {
	for _, s := range []engine.Strategy{engine.StrategyRelationship, engine.StrategyFetchFilter, engine.StrategyBigJoin} {
		t.Run(s.String(), func(t *testing.T) {
			backendtest.Conformance(t, memory(storage.Options{}, engine.Options{Strategy: s}))
		})
	}
}

// TestConformanceAblations turns each engine and storage ablation flag on
// alone. DisableZoneMaps only changes cold scans, so it runs on the
// reopened store.
func TestConformanceAblations(t *testing.T) {
	for _, c := range []struct {
		name string
		open backendtest.Open
	}{
		{"NoScoreSort", memory(storage.Options{}, engine.Options{NoScoreSort: true})},
		{"NoPushdown", memory(storage.Options{}, engine.Options{NoPushdown: true})},
		{"StatsScoring", memory(storage.Options{}, engine.Options{StatsScoring: true})},
		{"NoHashJoin", memory(storage.Options{}, engine.Options{NoHashJoin: true})},
		{"ApplyJoin", memory(storage.Options{}, engine.Options{ApplyJoin: true})},
		{"DisableIndexes", memory(storage.Options{DisableIndexes: true}, engine.Options{})},
		{"DisablePruning", memory(storage.Options{DisablePruning: true}, engine.Options{})},
		{"DisableZoneMaps", cold(storage.Options{DisableZoneMaps: true})},
		{"Workers=1", memory(storage.Options{Workers: 1}, engine.Options{})},
	} {
		t.Run(c.name, func(t *testing.T) { backendtest.Conformance(t, c.open) })
	}
}

// FuzzConformance holds the default engine over an in-memory store to the
// reference evaluator on a random dataset and one queries.Random draw.
func FuzzConformance(f *testing.F) {
	for i := int64(0); i < 4; i++ {
		f.Add(i, i)
	}
	open := memory(storage.Options{}, engine.Options{})
	f.Fuzz(func(t *testing.T, dataSeed, querySeed int64) {
		ds := backendtest.Dataset(rand.New(rand.NewSource(dataSeed)))
		src := queries.Random(rand.New(rand.NewSource(querySeed)))
		s := &backendtest.Suite{Name: "fuzz", Data: ds, Cases: []backendtest.Case{{ID: "q", Src: src}}}
		backendtest.Run(t, s, open(t, ds))
	})
}
