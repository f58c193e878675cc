// Package storage implements AIQL's domain-specific data store
// (paper Sec. 3.2). System monitoring data exhibits strong spatial and
// temporal properties: data from different agents is independent, and
// timestamps increase monotonically. The store therefore partitions events
// along both dimensions — one partition per (agent, UTC day) — and builds
// hash indexes on the attributes queries touch most (process exe_name, file
// name, network src/dst IP). Partition pruning by the query's spatial and
// temporal constraints plus parallel partition scans give the speedups the
// paper attributes to its storage layer.
//
// Queries never run against the mutable store directly: they acquire an
// immutable Snapshot (O(partitions), under the write lock only briefly) and
// stream matches through Cursors, so ingestion and query execution proceed
// concurrently without blocking each other.
//
// # Copy-on-write rules
//
// A snapshot captures references to the store's internal maps and event
// arrays; the mutation path keeps those captures immutable by obeying three
// rules while any snapshot is live (liveSnaps > 0):
//
//  1. Event arrays only grow at the tail. Appending past the captured
//     length is invisible to snapshot readers, which only index their own
//     prefix. Reordering a possibly-captured array (the out-of-order
//     re-sort) first copies it (partition.eventsShared).
//  2. Maps referenced by a snapshot are never written. The first posting
//     or index insertion after a snapshot replaces the map with a shallow
//     clone (partition.mapsShared / Store.metaShared); slice values inside
//     a cloned map still share backing arrays, which is safe by rule 1.
//  3. Flags are cleared once the clone is made, so a snapshot epoch pays
//     each copy at most once; with no live snapshots the flags are cleared
//     without cloning and mutation proceeds in place at full speed.
package storage

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Options control the optimizations individual benchmarks toggle for
// ablation studies. The zero value enables everything.
type Options struct {
	// DisableIndexes forces full entity scans instead of hash-index probes.
	DisableIndexes bool
	// DisablePruning scans every partition regardless of the query's
	// spatial/temporal constraints (the partitions still exist; only the
	// pruning is turned off).
	DisablePruning bool
	// DisableZoneMaps turns off per-block zone-map pruning on cold
	// (segment-backed) partitions: every block in a selected partition is
	// decoded and filtered row by row. Results are identical; only the work done
	// differs — the pruning differential test runs on exactly this toggle.
	DisableZoneMaps bool
	// Workers bounds scan parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// partKey identifies a spatial × temporal partition.
type partKey struct {
	agent int
	day   int
}

// partition holds one (agent, day)'s events in ascending (Start, Seq) order
// together with posting lists from entity id to event positions, plus the
// copy-on-write bookkeeping described in the package comment.
type partition struct {
	key       partKey
	events    []types.Event
	bySubject map[types.EntityID][]int32
	byObject  map[types.EntityID][]int32

	// cold, when non-nil, is the partition's sealed columnar prefix: rows
	// that live in mmap'ed segments, strictly older than every event in
	// the hot array above. See colpart.go.
	cold *coldPart

	// shadow is the partition's lazily-built columnar shadow over a prefix
	// of events (see hotcol.go). It is published atomically so scans read
	// it without the store lock; shadowMu serializes builders/extenders.
	// The shadow pins the events array it was built from by identity — a
	// re-sort or thaw replaces the array and the stale shadow is both
	// detected (base pointer mismatch) and proactively dropped.
	shadow   atomic.Pointer[hotShadow]
	shadowMu sync.Mutex

	// mapsShared marks the posting maps as possibly referenced by a live
	// snapshot: the next insertion must clone them first.
	mapsShared bool
	// eventsShared marks the events backing array as possibly referenced by
	// a live snapshot: tail appends remain safe, but a re-sort must copy.
	eventsShared bool
	// dirty records that events arrived out of order; the re-sort is
	// deferred to the end of the Ingest batch or the next Snapshot.
	dirty bool
}

// entityKey addresses the global entity attribute hash index.
type entityKey struct {
	typ  types.EntityType
	attr string
	val  string
}

// attrKey addresses one indexed attribute of one entity type.
type attrKey struct {
	typ  types.EntityType
	attr string
}

// entityIndex is the entity attribute hash index over indexedAttrs: the ids
// carrying each (type, attribute, value), and per (type, attribute) its
// distinct values in first-seen order — the value dictionary candidate
// resolution evaluates wildcard predicates against (Snapshot.candidateSet).
// Both maps follow the copy-on-write rules: their slices only grow at the
// tail, and the maps are cloned before a write while a snapshot may hold
// them.
type entityIndex struct {
	ids  map[entityKey][]types.EntityID
	vals map[attrKey][]string
}

func newEntityIndex() entityIndex {
	return entityIndex{ids: make(map[entityKey][]types.EntityID), vals: make(map[attrKey][]string)}
}

// clone shallow-copies both maps; slice values keep sharing their arrays.
func (x entityIndex) clone() entityIndex {
	c := entityIndex{
		ids:  make(map[entityKey][]types.EntityID, len(x.ids)),
		vals: make(map[attrKey][]string, len(x.vals)),
	}
	for k, v := range x.ids {
		c.ids[k] = v
	}
	for k, v := range x.vals {
		c.vals[k] = v
	}
	return c
}

// add indexes e under each of its indexed attributes.
func (x entityIndex) add(e *types.Entity) {
	for _, attr := range indexedAttrs[e.Type] {
		v, ok := e.Attrs[attr]
		if !ok {
			continue
		}
		k := entityKey{typ: e.Type, attr: attr, val: v}
		ids, seen := x.ids[k]
		if !seen {
			ak := attrKey{typ: e.Type, attr: attr}
			x.vals[ak] = append(x.vals[ak], v)
		}
		x.ids[k] = append(ids, e.ID)
	}
}

// indexedAttrs lists, per entity type, the attributes served by hash
// indexes — the attributes the paper says are queried frequently.
var indexedAttrs = map[types.EntityType][]string{
	types.EntityFile:    {types.AttrName},
	types.EntityProcess: {types.AttrExeName, types.AttrPID},
	types.EntityNetwork: {types.AttrDstIP, types.AttrSrcIP, types.AttrDstPort},
}

// IngestObserver receives every applied mutation batch, after it has been
// applied to the store, together with the generation the batch produced.
// Invocations are strictly ordered by generation — the store serializes
// apply+notify so no observer ever sees batch G+1 before batch G — and run
// on the mutator's goroutine, outside the store's internal lock: the
// observer may read the store (Entity, Snapshot) but must not mutate it.
//
// Under the persistent store the observer fires inside the same batch
// boundary the WAL uses (tapMu is held across append, apply and notify),
// so the durable log and a streaming consumer agree exactly on which
// batches were acknowledged, and in which order.
type IngestObserver func(d *types.Dataset, generation uint64)

// Store is the AIQL-optimized event store.
type Store struct {
	opts Options

	// tapMu serializes batches (see apply): tag dedup, the durable store's
	// WAL append, apply and observer notification, so the observer sees
	// batches in generation order and the WAL holds them in apply order. It
	// is taken before mu and held across the notification; readers
	// (snapshots, queries) take only mu and are never blocked behind
	// observer or journal work.
	tapMu sync.Mutex
	obs   IngestObserver // aiql:guarded-by tapMu

	mu         sync.RWMutex
	entities   map[types.EntityID]*types.Entity
	byType     map[types.EntityType][]types.EntityID
	entityIdx  entityIndex
	parts      map[partKey]*partition
	partList   []*partition // kept sorted by (day, agent); snapshots copy it
	eventCount int
	generation uint64

	// metaShared marks the entity maps and index above as possibly referenced
	// by a live snapshot; the next entity insertion clones them first.
	metaShared bool
	// liveSnaps counts snapshots not yet closed. While zero, the shared
	// flags are cleared lazily instead of triggering clones.
	liveSnaps int
	// liveCursors counts scan cursors opened against this store's
	// snapshots and not yet finished — the cursor-level companion of
	// liveSnaps for leak hunting (atomic: cursors close on consumer
	// goroutines that must not take the store lock).
	liveCursors atomic.Int64

	// replMu guards the replicated-ingest applied-set (see repl.go). A
	// leaf lock: taken briefly under tapMu, never while holding mu, never
	// across apply work.
	replMu         sync.Mutex
	repl           map[replKey]*replShard // aiql:guarded-by replMu
	replApplied    uint64                 // aiql:guarded-by replMu
	replDuplicates uint64                 // aiql:guarded-by replMu

	// scanStats counts cold-scan block traffic (atomic: incremented from
	// producer goroutines).
	scanStats scanCounters
	// coldErr latches the first cold-decode failure observed by a thaw, so
	// the persistent layer can surface corruption discovered off the read
	// path.
	coldErr error // aiql:guarded-by mu
}

// ScanCounter indexes the store's block-level scan counters.
type ScanCounter int

// The scan counters, in ScanCounters order. Of the blocks considered, the
// zone maps skip some without touching them and the rest are decoded, so
// BlocksDecoded + BlocksSkipped == BlocksConsidered. EntityVerdicts counts
// predicate evaluations before any row is touched: per entity, or per
// distinct value of an indexed attribute.
const (
	BlocksConsidered ScanCounter = iota
	BlocksSkipped
	BlocksDecoded
	BlocksFiltered
	ValueColumnsDecoded
	Thaws
	HotBatches
	DictVerdictHits
	AttrZoneSkips
	CompressedBytesRead
	CompressedBytesDecoded
	EntityVerdicts
	numScanCounters
)

// ScanCounters declares every scan counter once. Name is both the counter's
// key on a query's scan span and the <name> of its /metrics family
// aiql_scan_<name>_total; Help is that family's help text. A new counter is
// a constant above, an entry here and its increment sites.
var ScanCounters = [numScanCounters]struct{ Name, Help string }{
	BlocksConsidered:       {"blocks_considered", "Sealed-segment blocks considered by scans."},
	BlocksSkipped:          {"blocks_skipped", "Blocks skipped by zone maps without decoding."},
	BlocksDecoded:          {"blocks_decoded", "Blocks decoded and scanned."},
	BlocksFiltered:         {"blocks_filtered", "Decoded blocks rejected on their packed op and dictionary-index columns alone."},
	ValueColumnsDecoded:    {"value_columns_decoded", "Value columns inflated from decoded blocks (at most six per block)."},
	Thaws:                  {"thaws", "Cold partitions thawed for a scan."},
	HotBatches:             {"hot_batches", "Batches served from the hot in-memory tail."},
	DictVerdictHits:        {"dict_verdict_hits", "Dictionary-verdict short-circuits."},
	AttrZoneSkips:          {"attr_zone_skips", "Blocks skipped by attribute zone maps."},
	CompressedBytesRead:    {"compressed_bytes_read", "Compressed block bytes read from sealed segments."},
	CompressedBytesDecoded: {"compressed_bytes_decoded", "Bytes produced by block decompression."},
	EntityVerdicts:         {"entity_verdicts", "Entity predicate evaluations spent resolving candidate sets."},
}

// scanCounters aggregates zone-map and hot-path effectiveness across all
// scans.
type scanCounters [numScanCounters]atomic.Int64

// ScanStats is a point-in-time copy of the scan counters, indexed by
// ScanCounter.
type ScanStats [numScanCounters]int64

// ScanStats returns the store's cumulative scan counters.
func (s *Store) ScanStats() ScanStats {
	var st ScanStats
	for i := range st {
		st[i] = s.scanStats[i].Load()
	}
	return st
}

// New creates an empty store with the given options.
func New(opts Options) *Store {
	return &Store{
		opts:      opts,
		entities:  make(map[types.EntityID]*types.Entity),
		byType:    make(map[types.EntityType][]types.EntityID),
		entityIdx: newEntityIndex(),
		parts:     make(map[partKey]*partition),
	}
}

// Ingest loads a dataset as one atomic batch: snapshots taken concurrently
// see either none or all of it. Events must already be time sorted (Dataset
// guarantees this); ingestion appends to per-partition logs in order, and
// any partition that did receive out-of-order events is re-sorted once at
// the end of the batch, not per event.
func (s *Store) Ingest(d *types.Dataset) {
	_, _ = s.apply(nil, d, nil)
}

// IngestBatch applies one batch, tagged or not. A replication-tagged batch
// (tag non-nil) is applied exactly once: if its tag was already applied the
// batch is skipped and false is returned. Every applied batch reaches the
// ingest observer. The in-memory store never fails; the error is there so
// *Persistent, whose journal can, shares the signature.
func (s *Store) IngestBatch(tag *ReplTag, d *types.Dataset) (bool, error) {
	return s.apply(tag, d, nil)
}

// apply is the one way a batch enters the store. Under tapMu it skips a
// tagged batch whose tag is already applied (counting a duplicate), runs
// journal if given (the durable store's WAL append, which must land before
// the batch is visible), applies the batch, records the tag, and notifies
// the observer. A journal error leaves the store untouched.
func (s *Store) apply(tag *ReplTag, d *types.Dataset, journal func() error) (bool, error) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	if tag != nil && s.replAppliedLocked(*tag) {
		return false, nil
	}
	if journal != nil {
		if err := journal(); err != nil {
			return false, err
		}
	}
	gen := s.applyBatch(d)
	if tag != nil {
		s.replRecord(*tag)
		s.replMu.Lock()
		s.replApplied++
		s.replMu.Unlock()
	}
	if s.obs != nil {
		s.obs(d, gen)
	}
	return true, nil
}

// applyBatch applies one batch under the store lock (deferred, so a panic
// mid-batch cannot leave the store wedged) and returns the new generation.
// Callers hold tapMu.
func (s *Store) applyBatch(d *types.Dataset) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range d.Entities {
		s.addEntityLocked(&d.Entities[i])
	}
	for i := range d.Events {
		key := partKey{agent: d.Events[i].AgentID, day: timeutil.DayIndex(d.Events[i].Start)}
		p, ok := s.parts[key]
		if !ok {
			p = s.newPartLocked(key)
		}
		s.appendLocked(p, d.Events[i:i+1])
	}
	s.sortDirtyLocked()
	s.generation++
	return s.generation
}

// SetIngestObserver installs the store's single ingest tap (nil removes
// it). The observer is invoked post-apply for every mutation batch; see
// IngestObserver for the ordering and locking contract.
func (s *Store) SetIngestObserver(fn IngestObserver) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.obs = fn
}

// Generation returns a counter that increases monotonically with every
// mutation. Callers caching query results key them by the generation
// observed at execution time: a cached result is valid exactly as long as
// the store still reports the same generation.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.generation
}

// LiveSnapshots returns the number of snapshots acquired and not yet
// closed — a diagnostic for leak hunting and for sizing the store's
// copy-on-write overhead under concurrent load.
func (s *Store) LiveSnapshots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveSnaps
}

// LiveCursors returns the number of scan cursors opened against this
// store's snapshots and not yet exhausted or closed. Together with
// LiveSnapshots it is the leak diagnostic tests assert returns to baseline
// after every execution path, error paths included: an execution that
// errors without closing its cursor strands the producer goroutines and
// the copy-on-write protection they rely on.
func (s *Store) LiveCursors() int {
	return int(s.liveCursors.Load())
}

// cowMetaLocked makes the entity maps safe to mutate: if a live snapshot
// may reference them they are shallow-cloned, otherwise the stale shared
// flag is simply dropped.
func (s *Store) cowMetaLocked() {
	if !s.metaShared {
		return
	}
	if s.liveSnaps > 0 {
		entities := make(map[types.EntityID]*types.Entity, len(s.entities)+1)
		for k, v := range s.entities {
			entities[k] = v
		}
		byType := make(map[types.EntityType][]types.EntityID, len(s.byType))
		for k, v := range s.byType {
			byType[k] = v
		}
		s.entities, s.byType, s.entityIdx = entities, byType, s.entityIdx.clone()
	}
	s.metaShared = false
}

// cowPartLocked makes a partition's posting maps safe to mutate, cloning
// them when a live snapshot may hold references.
func (s *Store) cowPartLocked(p *partition) {
	if !p.mapsShared {
		return
	}
	if s.liveSnaps > 0 {
		bySubject := make(map[types.EntityID][]int32, len(p.bySubject))
		for k, v := range p.bySubject {
			bySubject[k] = v
		}
		byObject := make(map[types.EntityID][]int32, len(p.byObject))
		for k, v := range p.byObject {
			byObject[k] = v
		}
		p.bySubject, p.byObject = bySubject, byObject
	}
	p.mapsShared = false
}

func (s *Store) addEntityLocked(e *types.Entity) {
	if _, dup := s.entities[e.ID]; dup {
		return
	}
	s.cowMetaLocked()
	s.entities[e.ID] = e
	s.byType[e.Type] = append(s.byType[e.Type], e.ID)
	s.entityIdx.add(e)
}

// appendLocked appends events — sorted, so events[0] is the earliest — to a
// partition and its posting lists, the one place a live partition grows.
// An append at or before the cold maximum would break the cold-before-hot
// ordering invariant, so the cold prefix decodes first. Events arriving out
// of order only mark the partition dirty; the re-sort is deferred to the
// end of the batch or the next snapshot.
func (s *Store) appendLocked(p *partition, events []types.Event) {
	if p.cold != nil && events[0].Start <= p.cold.maxStart {
		s.thawLocked(p)
	}
	s.cowPartLocked(p)
	p.append(events)
	s.eventCount += len(events)
}

// append adds events at the tail of the partition's array and posting lists,
// marking the partition dirty when one sorts before its predecessor.
// Callers hold the store lock and made the posting maps writable.
func (p *partition) append(events []types.Event) {
	for i := range events {
		ev := &events[i]
		pos := int32(len(p.events))
		if !p.dirty && pos > 0 && eventLess(ev, &p.events[pos-1]) {
			p.dirty = true
		}
		p.events = append(p.events, *ev)
		p.bySubject[ev.Subject] = append(p.bySubject[ev.Subject], pos)
		p.byObject[ev.Object] = append(p.byObject[ev.Object], pos)
	}
}

// newPartLocked creates and registers an empty partition. partList stays
// sorted by (day, agent) with one binary search and shift per new
// partition, instead of re-sorting the whole list; snapshots copy partList
// at acquisition, so in-place edits are safe.
func (s *Store) newPartLocked(key partKey) *partition {
	p := &partition{
		key:       key,
		bySubject: make(map[types.EntityID][]int32),
		byObject:  make(map[types.EntityID][]int32),
	}
	s.parts[key] = p
	i := sort.Search(len(s.partList), func(i int) bool {
		k := s.partList[i].key
		if k.day != key.day {
			return k.day > key.day
		}
		return k.agent >= key.agent
	})
	s.partList = append(s.partList, nil)
	copy(s.partList[i+1:], s.partList[i:])
	s.partList[i] = p
	return p
}

// installPartition installs a fully-formed partition decoded from an
// on-disk segment: events already sorted by (Start, Seq) and posting lists
// already built, so the common case is a pointer hand-off with no
// re-indexing. When the partition key already exists — WAL replay ran
// before the segment loaded, or two segments straddle the same (agent,
// day) — the events are appended like any other batch and the merge sort
// and posting rebuild deferred to the next snapshot, exactly like
// out-of-order ingest.
func (s *Store) installPartition(key partKey, events []types.Event, bySubject, byObject map[types.EntityID][]int32) {
	if len(events) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.parts[key]
	if !ok {
		p = s.newPartLocked(key)
		p.events, p.bySubject, p.byObject = events, bySubject, byObject
		s.eventCount += len(events)
		return
	}
	s.appendLocked(p, events)
}

// sortDirtyLocked restores temporal order in partitions that received
// out-of-order events, rebuilding their posting lists. An events array that
// was ever captured by a snapshot is copied before sorting — regardless of
// how many snapshots remain live, because Match.Event pointers handed out
// by past scans are interior pointers into that array and outlive the
// snapshot that produced them. Posting maps are rebuilt fresh either way.
func (s *Store) sortDirtyLocked() {
	for _, p := range s.partList {
		if !p.dirty {
			continue
		}
		if p.eventsShared {
			events := make([]types.Event, len(p.events))
			copy(events, p.events)
			p.events = events
		}
		p.eventsShared = false
		// The re-sort reorders rows, so any columnar shadow over the old
		// array is stale; readers would detect the base-pointer mismatch
		// anyway, but dropping it eagerly frees the columns.
		p.shadow.Store(nil)
		sort.Slice(p.events, func(i, j int) bool {
			return eventLess(&p.events[i], &p.events[j])
		})
		bySubject := make(map[types.EntityID][]int32, len(p.bySubject))
		byObject := make(map[types.EntityID][]int32, len(p.byObject))
		for i := range p.events {
			ev := &p.events[i]
			bySubject[ev.Subject] = append(bySubject[ev.Subject], int32(i))
			byObject[ev.Object] = append(byObject[ev.Object], int32(i))
		}
		p.bySubject, p.byObject = bySubject, byObject
		p.mapsShared = false
		p.dirty = false
	}
}

// EventCount returns the number of ingested events.
func (s *Store) EventCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eventCount
}

// PartitionCount returns the number of (agent, day) partitions.
func (s *Store) PartitionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.partList)
}

// Entity returns the entity with the given id, or nil.
func (s *Store) Entity(id types.EntityID) *types.Entity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entities[id]
}

// EntityPair resolves two entities under one lock acquisition. The ingest
// tap resolves every event's subject and object on the hot path; the paired
// lookup halves its lock traffic.
func (s *Store) EntityPair(a, b types.EntityID) (*types.Entity, *types.Entity) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entities[a], s.entities[b]
}

// DataQuery is the storage-level query synthesized from one AIQL event
// pattern (paper Fig. 3). All fields are conjunctive; zero values mean
// "unconstrained".
type DataQuery struct {
	// Agents restricts the spatial dimension; empty means all agents.
	Agents []int
	// Window restricts the temporal dimension.
	Window timeutil.Window
	// SubjType/ObjType restrict entity types (subjects are processes in
	// well-formed AIQL, but the engine passes the type through regardless).
	SubjType types.EntityType
	ObjType  types.EntityType
	// SubjPred/ObjPred are entity attribute predicates.
	SubjPred pred.Pred
	ObjPred  pred.Pred
	// Ops is the operation set from the pattern's <op_exp>.
	Ops types.OpSet
	// EvtPred constrains event attributes (amount, failcode, ...).
	EvtPred pred.Pred
	// SubjAllowed/ObjAllowed, when non-nil, restrict the subject/object to
	// previously discovered entities — this is how the relationship-based
	// scheduler pushes earlier results into later data queries
	// (Algorithm 1's "execute q_j under S_i").
	SubjAllowed map[types.EntityID]struct{}
	ObjAllowed  map[types.EntityID]struct{}
	// Limit stops the scan after this many matches (0 = unlimited).
	Limit int
	// ForceScan bypasses candidate-set resolution and posting lists,
	// evaluating every predicate per event row. The baseline emulations use
	// it to model semantics-agnostic executors that join event and entity
	// tables without AIQL's entity pre-resolution.
	ForceScan bool
	// Partition, when non-nil, keeps only the (agent, day) partitions it
	// accepts. Unlike the pruning above it restricts the answer, so it
	// holds under Options.DisablePruning too. A replicated cluster worker
	// uses it to read one of the two shards it stores; it never crosses
	// the wire.
	Partition func(agent, day int) bool
}

// Admits reports whether one event, with its resolved endpoints, is in the
// query's answer: the one row-level definition of a data query. Every
// scalar evaluator calls it or its halves — storage's posting and ForceScan
// walks, the graph baseline, a standing rule's live tap — and the
// vectorized hot and cold scans evaluate the same conjuncts in batch form.
// Limit and ForceScan are execution hints and play no part.
func (q *DataQuery) Admits(ev *types.Event, subj, obj *types.Entity) bool {
	return q.AdmitsEvent(ev) && q.AdmitsSubject(subj, nil) && q.AdmitsObject(obj, nil)
}

// AdmitsEvent is the event half of Admits: operation, agents, window,
// partition and event predicate.
func (q *DataQuery) AdmitsEvent(ev *types.Event) bool {
	if !q.Ops.Contains(ev.Op) || !q.Window.Contains(ev.Start) {
		return false
	}
	if len(q.Agents) > 0 && !slices.Contains(q.Agents, ev.AgentID) {
		return false
	}
	if q.Partition != nil && !q.Partition(ev.AgentID, timeutil.DayIndex(ev.Start)) {
		return false
	}
	return q.EvtPred == nil || q.EvtPred.Eval(ev)
}

// AdmitsSubject is the subject half of Admits. A non-nil cand is a
// candidate set the caller resolved from SubjAllowed and SubjPred; it
// stands in for both, so the predicate is not evaluated again.
func (q *DataQuery) AdmitsSubject(e *types.Entity, cand map[types.EntityID]struct{}) bool {
	return entityAdmits(e, q.SubjType, q.SubjPred, q.SubjAllowed, cand)
}

// AdmitsObject is the object half of Admits, as AdmitsSubject.
func (q *DataQuery) AdmitsObject(e *types.Entity, cand map[types.EntityID]struct{}) bool {
	return entityAdmits(e, q.ObjType, q.ObjPred, q.ObjAllowed, cand)
}

// entityAdmits is one endpoint's test: the entity must exist and have the
// type, then belong to the candidate set when there is one, or else to the
// allowed set (when set) and pass the predicate.
func entityAdmits(e *types.Entity, t types.EntityType, p pred.Pred, allowed, cand map[types.EntityID]struct{}) bool {
	if e == nil || (t != types.EntityInvalid && e.Type != t) {
		return false
	}
	if cand != nil {
		_, ok := cand[e.ID]
		return ok
	}
	if allowed != nil {
		if _, ok := allowed[e.ID]; !ok {
			return false
		}
	}
	return p == nil || p.Eval(e)
}

// Match is one event matching a DataQuery, with resolved entities.
type Match struct {
	Event *types.Event
	Subj  *types.Entity
	Obj   *types.Entity
}

// Scan implements the engine's Backend interface: it acquires a snapshot,
// streams the query's matches through a cursor, and releases the snapshot
// when the cursor is exhausted or closed. Concurrent Ingest never blocks an
// in-flight scan, and the scan never observes a half-applied batch.
func (s *Store) Scan(ctx context.Context, q *DataQuery) Cursor {
	snap := s.Snapshot()
	return snap.scan(ctx, q, snap.Close)
}

// Run is the materializing adapter over Scan — the single canonical
// "execute a data query" entry point for callers that want the whole
// result at once. Canceling ctx aborts the scan between batches.
func (s *Store) Run(ctx context.Context, q *DataQuery) []Match {
	c := s.Scan(ctx, q)
	defer c.Close()
	return Drain(c)
}

// Agents returns the distinct agent ids present in the store, sorted.
func (s *Store) Agents() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[int]struct{})
	for _, p := range s.partList {
		set[p.key.agent] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Days returns the distinct day indexes present in the store, sorted.
func (s *Store) Days() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[int]struct{})
	for _, p := range s.partList {
		set[p.key.day] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func attrIndexed(t types.EntityType, attr string) bool {
	for _, a := range indexedAttrs[t] {
		if a == attr {
			return true
		}
	}
	return false
}

func eventLess(a, b *types.Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Seq < b.Seq
}
