package server

import (
	"container/list"
	"sync"

	"aiql/internal/engine"
)

// CacheStats is a point-in-time snapshot of one cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// lru is a mutex-guarded bounded LRU map; both caches are thin typed
// wrappers around it. The zero capacity means "disabled": every lookup is a
// miss and nothing is stored, so cache-off ablations need no special casing
// at the call sites.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
	stats CacheStats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

func (c *lru[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.stats.Evictions++
	}
}

// contains reports presence without touching recency order or counters —
// a diagnostic peek, not a cache access.
func (c *lru[K, V]) contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

func (c *lru[K, V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[K]*list.Element)
}

func (c *lru[K, V]) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.items)
	return s
}

// PlanCache maps normalized query text to its compiled PreparedQuery, so a
// repeated investigation pays lex/parse/compile/schedule-setup only once.
// Plans are immutable and dataset-independent, so entries never need
// invalidation — only LRU bounding.
type PlanCache struct {
	c *lru[string, *engine.PreparedQuery]
}

// NewPlanCache creates a plan cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: newLRU[string, *engine.PreparedQuery](capacity)}
}

// Get returns the cached plan for normalized source key, if present.
func (pc *PlanCache) Get(key string) (*engine.PreparedQuery, bool) { return pc.c.get(key) }

// Put stores a compiled plan under its normalized source key.
func (pc *PlanCache) Put(key string, p *engine.PreparedQuery) { pc.c.put(key, p) }

// Contains reports whether a plan is cached without counting a hit or miss.
func (pc *PlanCache) Contains(key string) bool { return pc.c.contains(key) }

// Stats snapshots the hit/miss counters.
func (pc *PlanCache) Stats() CacheStats { return pc.c.snapshot() }

// resultKey identifies one cached result: the plan (by normalized source)
// executed against one immutable snapshot of the store (by generation).
type resultKey struct {
	src string
	gen uint64
}

// ResultCache maps (plan, store generation) to the materialized Result.
// The generation in the key makes invalidation automatic — after an ingest
// bumps the store's generation, lookups miss because they ask for the new
// generation — and Purge drops the now-unreachable stale entries eagerly so
// they do not squat in the LRU until capacity forces them out.
type ResultCache struct {
	c *lru[resultKey, *engine.Result]
}

// NewResultCache creates a result cache holding at most capacity results.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{c: newLRU[resultKey, *engine.Result](capacity)}
}

// Get returns the cached result of plan src against store generation gen.
func (rc *ResultCache) Get(src string, gen uint64) (*engine.Result, bool) {
	return rc.c.get(resultKey{src: src, gen: gen})
}

// Put stores a result computed by plan src against store generation gen.
func (rc *ResultCache) Put(src string, gen uint64, r *engine.Result) {
	rc.c.put(resultKey{src: src, gen: gen}, r)
}

// Purge drops every entry; the server calls it after each ingest.
func (rc *ResultCache) Purge() { rc.c.purge() }

// Stats snapshots the hit/miss counters.
func (rc *ResultCache) Stats() CacheStats { return rc.c.snapshot() }
