package server

import (
	"testing"

	"aiql/internal/engine"
)

func TestResultCacheLRUEviction(t *testing.T) {
	rc := NewResultCache(2)
	ra := &engine.Result{Columns: []string{"a"}}
	rb := &engine.Result{Columns: []string{"b"}}
	rcc := &engine.Result{Columns: []string{"c"}}

	rc.Put("a", 1, ra)
	rc.Put("b", 1, rb)
	if _, ok := rc.Get("a", 1); !ok { // touch a so b becomes the LRU entry
		t.Fatal("a missing before eviction")
	}
	rc.Put("c", 1, rcc)

	if _, ok := rc.Get("b", 1); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if got, ok := rc.Get("a", 1); !ok || got != ra {
		t.Error("a should have survived eviction")
	}
	if _, ok := rc.Get("c", 1); !ok {
		t.Error("c should be present")
	}
	s := rc.Stats()
	if s.Size != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want size 2, evictions 1", s)
	}
}

func TestResultCacheGenerationKeysAreDistinct(t *testing.T) {
	rc := NewResultCache(8)
	old := &engine.Result{Columns: []string{"old"}}
	rc.Put("q", 1, old)
	if _, ok := rc.Get("q", 2); ok {
		t.Fatal("result cached at generation 1 served for generation 2")
	}
	if got, ok := rc.Get("q", 1); !ok || got != old {
		t.Fatal("result for generation 1 lost")
	}
}

func TestResultCachePurge(t *testing.T) {
	rc := NewResultCache(8)
	rc.Put("q", 1, &engine.Result{})
	rc.Purge()
	if _, ok := rc.Get("q", 1); ok {
		t.Fatal("entry survived Purge")
	}
	if s := rc.Stats(); s.Size != 0 {
		t.Fatalf("size after purge = %d, want 0", s.Size)
	}
}

func TestDisabledCacheStoresNothing(t *testing.T) {
	pc := NewPlanCache(-1)
	pc.Put("q", nil)
	if _, ok := pc.Get("q"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	s := pc.Stats()
	if s.Size != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want empty with 1 miss", s)
	}
}

func TestPlanCacheUpdateKeepsSizeBounded(t *testing.T) {
	pc := NewPlanCache(1)
	pc.Put("q", nil)
	pc.Put("q", nil) // update, not insert
	if s := pc.Stats(); s.Size != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want size 1 with no evictions", s)
	}
}
