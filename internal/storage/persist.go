package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aiql/internal/obs"
	"aiql/internal/types"
	"aiql/internal/wal"
)

// PersistOptions tune the persistent mode. The zero value is a sensible
// durable configuration: group-committed WAL syncs every FlushInterval,
// compaction in the background.
type PersistOptions struct {
	// Store configures the in-memory store recovery rebuilds.
	Store Options
	// SyncEveryBatch fsyncs the WAL after every ingest batch — maximum
	// durability, one fsync per batch. When false, appends are synced by
	// the background flusher every FlushInterval (group commit): a crash
	// can lose at most the last interval's batches, never corrupt.
	SyncEveryBatch bool
	// FlushInterval is the group-commit cadence (default 100ms; negative
	// disables the background flusher).
	FlushInterval time.Duration
	// CompactInterval is the background compaction cadence (default 30s;
	// negative disables it — tests drive Compact directly).
	CompactInterval time.Duration
	// CompactThresholdBytes triggers a compaction as soon as the WAL
	// exceeds this size, without waiting for the interval (default 16 MiB).
	CompactThresholdBytes int64
	// WAL passes through to the log (file rotation size).
	WAL wal.Options
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.FlushInterval == 0 {
		o.FlushInterval = 100 * time.Millisecond
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 30 * time.Second
	}
	if o.CompactThresholdBytes == 0 {
		o.CompactThresholdBytes = 16 << 20
	}
	return o
}

// Persistent is the disk-backed mode of the store: every ingest batch is
// appended to a checksummed write-ahead log before it is applied in
// memory, and a compactor periodically folds the log into immutable,
// (agent, day)-partitioned segment files. Reopening the directory rebuilds
// exactly the state every acknowledged batch left behind: segments load
// lazily (headers at open, payloads at warm-up), then the WAL's
// not-yet-compacted suffix replays on top.
//
// The embedded *Store answers queries; hand it (not the Persistent) to
// engines — the engine's snapshot pinning type-switches on *storage.Store.
// Mutations must go through Persistent.Ingest or IngestBatch, which journal
// first; mutating the embedded store directly would bypass durability.
// Journal and apply both run under the embedded store's tapMu, so the WAL's
// batch order is exactly the order the store applied and replay reproduces
// the same state.
//
// Snapshots pin segment data exactly as they pin purely in-memory data:
// loaded segment partitions are ordinary partitions under the store's
// copy-on-write rules, and segment files themselves are immutable —
// compaction only ever transforms WAL files into new segment files, never
// rewrites either, so no disk operation invalidates a live snapshot.
type Persistent struct {
	*Store
	dir    string
	opts   PersistOptions
	log    *wal.Log
	unlock func() // releases the data-directory flock

	// compactMu serializes compactions; the long work (WAL re-read,
	// segment build, fsyncs) runs under it alone, so readers of the
	// segment list are never blocked behind a compaction.
	compactMu sync.Mutex
	// segMu guards the segment list and coveredSeq — held only for the
	// brief reads/mutations, never across disk work.
	segMu      sync.Mutex
	segs       []*segEntry // aiql:guarded-by segMu
	coveredSeq uint64      // highest WAL seq the segments cover; aiql:guarded-by segMu

	loadOnce sync.Once
	loadErr  error

	dirty atomic.Bool // appended but not yet synced
	// syncErr latches the first failed fsync permanently: after a failed
	// fsync the kernel may drop the dirty pages and report success on the
	// next call, so no later sync can prove the earlier appends landed.
	// Once latched, Ingest refuses new batches until the process restarts
	// (recovery then rebuilds from what actually reached the disk).
	syncErr     atomic.Pointer[error]
	compactc    chan struct{}
	stop        chan struct{}
	bg          sync.WaitGroup
	closeOnce   sync.Once
	compactions atomic.Uint64
	// compactNanos is the cumulative wall time spent inside Compact calls
	// that produced a segment — the scrape-side input for compaction-latency
	// monitoring.
	compactNanos atomic.Int64
	replayed     atomic.Uint64 // WAL records replayed at open

	// crashHook, when set (tests only), is called at named points inside
	// Compact; returning an error abandons the compaction at exactly that
	// point, simulating a crash with the disk state half-transformed.
	crashHook func(point string) error
}

// OpenPersistent opens (creating if necessary) a durable store rooted at
// dir. The directory holds wal/ and seg/ subdirectories. Opening performs
// recovery: stale compaction temp files are removed, segment headers are
// read (payloads stay on disk until WarmUp or first use), a torn WAL tail
// is truncated, WAL files fully covered by segments are deleted, and the
// WAL's uncovered suffix is replayed into memory. The returned store is
// ready for both ingest and queries — call WarmUp to pay the segment load
// eagerly instead of on first use.
func OpenPersistent(dir string, opts PersistOptions) (*Persistent, error) {
	opts = opts.withDefaults()
	segDir := filepath.Join(dir, "seg")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	p := &Persistent{
		Store:    New(opts.Store),
		dir:      dir,
		opts:     opts,
		compactc: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}

	// Recovery step 0: take the directory lock. Two processes appending
	// to the same WAL would interleave records and corrupt the sealed
	// history; the lock is held for the store's lifetime and released by
	// the OS on any exit, crash included.
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	p.unlock = unlock
	ok := false
	defer func() {
		if !ok {
			p.unlock()
		}
	}()

	// Recovery step 1: sweep aborted compactions. A *.tmp file is a
	// segment whose write never reached the rename; its WAL range is
	// still fully in the log, so the file is garbage.
	ents, err := os.ReadDir(segDir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(segDir, name)); err != nil {
				return nil, fmt.Errorf("storage: remove stale %s: %w", name, err)
			}
			continue
		}
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		sf, err := openSegment(filepath.Join(segDir, name))
		if err != nil {
			// Segments are fsynced before their WAL range is deleted;
			// a segment that does not parse — a retired format included —
			// is real corruption, never something to skip.
			return nil, err
		}
		p.segs = append(p.segs, &segEntry{seg: sf})
		if sf.lastSeq > p.coveredSeq {
			p.coveredSeq = sf.lastSeq
		}
	}
	// Entities load eagerly, in segment sequence order, BEFORE the WAL
	// replay below. Entity registration is first-write-wins
	// (addEntityLocked ignores re-registrations), so recovery must
	// install entities in the order the live process first saw them:
	// segment ranges oldest first, then the WAL suffix. The event
	// payloads — the bulk — still load lazily. Entity blocks are
	// dimension-table sized.
	sort.Slice(p.segs, func(i, j int) bool {
		return p.segs[i].seg.firstSeq < p.segs[j].seg.firstSeq
	})
	for _, e := range p.segs {
		if err := p.loadSegmentEntities(e.seg); err != nil {
			return nil, err
		}
	}

	// Recovery step 2: open the WAL (truncating any torn tail) and drop
	// files a completed compaction made redundant before crashing.
	log, err := wal.Open(filepath.Join(dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	p.log = log
	// Replication state rebuilds from two sources, layered idempotently:
	// the sidecar snapshot a past compaction saved (covering tags whose
	// WAL records were folded into segments) and a tag scan over every
	// WAL file still on disk. The scan runs before RemoveThrough below —
	// a crash between a compaction's segment rename and its sidecar write
	// leaves covered WAL files holding the only copy of their tags.
	if err := p.loadReplSidecar(); err != nil {
		log.Close()
		return nil, err
	}
	err = log.Replay(0, func(seq uint64, payload []byte) error {
		if tag, _, _ := peekTag(payload); tag != nil {
			p.Store.replRecord(*tag)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	if p.coveredSeq > 0 {
		// RemoveThrough below deletes covered WAL files — for tags whose
		// compaction crashed before its sidecar write, the only durable
		// copy. Snapshot the just-rebuilt state first, or a restart after
		// this one would forget them and re-apply a coordinator retry.
		if err := p.saveReplSidecar(); err != nil {
			log.Close()
			return nil, err
		}
		// A crash between a compaction's segment rename and its WAL
		// deletion leaves files the segment fully covers — possibly
		// including the one Open just adopted as active. Seal everything
		// so the covered files can be deleted; the next append starts a
		// fresh file.
		if _, err := log.Rotate(); err != nil {
			log.Close()
			return nil, err
		}
		if err := log.RemoveThrough(p.coveredSeq); err != nil {
			log.Close()
			return nil, err
		}
		// A fully-compacted log may have no files left at all: its
		// sequence counter must resume after the covered range, or new
		// batches would be journaled with already-covered sequence
		// numbers and silently skipped by the next recovery.
		log.AdvanceTo(p.coveredSeq)
	}

	// Recovery step 3: replay the uncovered suffix. Records at or below
	// coveredSeq are already in segments; replaying by sequence number is
	// what makes "apply exactly once" hold across any crash point.
	err = log.Replay(p.coveredSeq, func(seq uint64, payload []byte) error {
		_, entities, events, err := DecodeMaybeTagged(payload)
		if err != nil {
			return fmt.Errorf("wal seq %d: %w", seq, err)
		}
		// Apply untagged and unconditionally: Replay already skips covered
		// sequence numbers, and the tag dedup must not second-guess it — the
		// tag scan above recorded this record's tag (the sidecar may hold it
		// too), but its data exists nowhere else than right here. No
		// observer can be attached to the store before it is returned.
		_, _ = p.Store.apply(nil, &types.Dataset{Entities: entities, Events: events}, nil)
		p.replayed.Add(1)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}

	if opts.FlushInterval > 0 || opts.CompactInterval > 0 {
		p.bg.Add(1)
		go p.background()
	}
	ok = true
	return p, nil
}

// Dir returns the store's root directory.
func (p *Persistent) Dir() string { return p.dir }

// WarmUp makes every segment's event partitions queryable (entities were
// installed at open, where ordering matters). Segments install as
// memory-mapped cold runs, in firstSeq order (the cold fast path needs runs
// oldest-first) — near-free, since no event is decoded until a scan touches
// its block. Idempotent and implied by the first mutation; servers call it
// before accepting queries.
func (p *Persistent) WarmUp() error {
	p.loadOnce.Do(func() {
		p.segMu.Lock()
		var segs []*segmentFile
		for _, e := range p.segs {
			if !e.loaded {
				e.loaded = true
				segs = append(segs, e.seg)
			}
		}
		p.segMu.Unlock()
		for _, sf := range segs {
			if err := sf.install(p.Store); err != nil {
				p.loadErr = err
				return
			}
		}
		p.Store.mu.Lock()
		p.Store.generation++
		p.Store.mu.Unlock()
	})
	return p.loadErr
}

// loadSegmentEntities installs one segment's entity block. Runs at open,
// strictly in segment sequence order — entity registration is
// first-write-wins, so install order decides which attributes a re-used
// entity id keeps, and recovery must decide it the way the live process
// did.
func (p *Persistent) loadSegmentEntities(sf *segmentFile) error {
	entities, err := sf.readEntities()
	if err != nil {
		return err
	}
	p.Store.mu.Lock()
	for i := range entities {
		p.Store.addEntityLocked(&entities[i])
	}
	p.Store.mu.Unlock()
	return nil
}

// segEntry tracks one segment in the persistent store's list, with the
// load state that belongs to this process rather than to the file:
// segments a compaction produced here are born loaded (their batches
// arrived through Ingest); segments found at open install on WarmUp.
// Guarded by segMu.
type segEntry struct {
	seg    *segmentFile
	loaded bool
}

// Ingest journals one untagged batch, then applies it; see IngestBatch.
func (p *Persistent) Ingest(ds *types.Dataset) error {
	_, err := p.IngestBatch(nil, ds)
	return err
}

// IngestBatch is the durable form of Store.IngestBatch and the only ingest
// path that survives a restart: the batch is journaled to the WAL, then
// applied to the in-memory store. A tagged batch carries its tag inside the
// WAL record, so recovery rebuilds the applied-set; a duplicate tag is
// detected before journaling and costs neither a WAL record nor an fsync.
// The batch is durable per the sync policy: immediately with SyncEveryBatch,
// within FlushInterval otherwise. An IngestObserver installed on the
// embedded store fires inside the same batch boundary the journal uses, so
// streaming consumers observe exactly the acknowledged batches, in WAL
// order.
func (p *Persistent) IngestBatch(tag *ReplTag, ds *types.Dataset) (bool, error) {
	if err := p.WarmUp(); err != nil {
		return false, err
	}
	if ep := p.syncErr.Load(); ep != nil {
		return false, fmt.Errorf("storage: WAL sync failed earlier, refusing new batches: %w", *ep)
	}
	payload := EncodeBatch(tag, ds.Entities, ds.Events)
	applied, err := p.Store.apply(tag, ds, func() error {
		if _, err := p.log.Append(payload); err != nil {
			return err
		}
		if !p.opts.SyncEveryBatch {
			p.dirty.Store(true)
			return nil
		}
		if err := p.log.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages: the appended record's fate is unknown (it can still
			// resurface after a restart). Latch the failure so no further
			// batches are acknowledged against a log in an unknown state.
			p.syncErr.Store(&err)
			return fmt.Errorf("storage: WAL sync: %w (batch not acknowledged; it may still reappear after a restart)", err)
		}
		return nil
	})
	if !applied {
		return false, err
	}
	if _, bytes := p.log.Depth(); bytes >= p.opts.CompactThresholdBytes {
		select {
		case p.compactc <- struct{}{}:
		default:
		}
	}
	return true, nil
}

// Sync forces all journaled batches to stable storage now. The dirty flag
// is cleared before the fsync (an append racing in re-sets it and is
// covered by the next cycle) and restored on failure so a failed sync is
// always retried, never silently dropped; the failure also latches
// syncErr, permanently refusing further acknowledgements (see the field).
func (p *Persistent) Sync() error {
	p.dirty.Swap(false)
	if err := p.log.Sync(); err != nil {
		p.dirty.Store(true)
		p.syncErr.Store(&err)
		return err
	}
	return nil
}

// Compact folds the WAL's sealed files into one new immutable segment:
// rotate the active file, re-read the sealed records, write them as a
// partitioned segment (fsync + rename + dir fsync), then delete the
// consumed WAL files. Every step is crash-safe: until the rename lands the
// WAL still covers everything; after it, recovery skips the covered
// sequence range even if the WAL deletion never happened.
func (p *Persistent) Compact() error {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	start := obs.Now()
	p.segMu.Lock()
	covered := p.coveredSeq
	p.segMu.Unlock()
	sealed, err := p.log.Rotate()
	if err != nil {
		return err
	}
	last := covered
	for _, info := range sealed {
		if info.Records > 0 && info.Last > last {
			last = info.Last
		}
	}
	if last <= covered {
		// Nothing new — but sealed files may still be fully-covered
		// leftovers of a compaction that crashed before its deletion step.
		return p.log.RemoveThrough(covered)
	}

	// Re-read the sealed range from disk. Entities are deduplicated by id
	// (re-registrations are no-ops in memory too); events are concatenated
	// and re-partitioned by the segment writer.
	var entities []types.Entity
	var events []types.Event
	seen := make(map[types.EntityID]struct{})
	err = p.log.Replay(covered, func(seq uint64, payload []byte) error {
		if seq > last {
			return nil // active-file records stay in the WAL
		}
		_, ents, evs, err := DecodeMaybeTagged(payload)
		if err != nil {
			return fmt.Errorf("wal seq %d: %w", seq, err)
		}
		for i := range ents {
			if _, dup := seen[ents[i].ID]; dup {
				continue
			}
			seen[ents[i].ID] = struct{}{}
			entities = append(entities, ents[i])
		}
		events = append(events, evs...)
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.crash("compact-collected"); err != nil {
		return err
	}

	// The store's Entity lookup resolves ids the batch itself does not carry
	// (events referencing entities sealed earlier) for the attribute zone
	// maps; the store keeps all entities in memory, and Compact does not
	// hold the store lock here.
	sf, err := writeSegment(filepath.Join(p.dir, "seg"), covered+1, last, entities, events, p.Entity)
	if err != nil {
		return err
	}
	if err := p.crash("segment-written"); err != nil {
		return err
	}
	// The new segment is tracked for stats and for the next open; its data
	// is already in memory (it arrived through Ingest), so it is born
	// loaded — WarmUp must never re-apply it in this process.
	p.segMu.Lock()
	p.segs = append(p.segs, &segEntry{seg: sf, loaded: true})
	p.coveredSeq = last
	p.segMu.Unlock()
	p.compactions.Add(1)
	p.compactNanos.Add(int64(obs.Since(start)))
	// The consumed WAL records may carry replication tags; once the files
	// are deleted the sidecar is the only durable copy of those tags, so
	// it must land first. On failure the WAL files stay (recovery re-scans
	// them) and the next compaction retries the deletion.
	if err := p.saveReplSidecar(); err != nil {
		return err
	}
	if err := p.crash("before-wal-remove"); err != nil {
		return err
	}
	return p.log.RemoveThrough(last)
}

func (p *Persistent) crash(point string) error {
	if p.crashHook != nil {
		return p.crashHook(point)
	}
	return nil
}

// background runs the group-commit flusher and the compaction timer.
func (p *Persistent) background() {
	defer p.bg.Done()
	flushEvery := p.opts.FlushInterval
	if flushEvery <= 0 {
		flushEvery = time.Hour
	}
	compactEvery := p.opts.CompactInterval
	if compactEvery <= 0 {
		compactEvery = time.Hour
	}
	flush := time.NewTicker(flushEvery)
	compact := time.NewTicker(compactEvery)
	defer flush.Stop()
	defer compact.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-flush.C:
			if p.opts.FlushInterval > 0 && p.dirty.Load() {
				// Sync owns the dirty/latch protocol: on failure the
				// batches stay marked unsynced and Ingest refuses new
				// acknowledgements until a sync lands.
				_ = p.Sync()
			}
		case <-compact.C:
			if p.opts.CompactInterval > 0 {
				p.compactAndReport()
			}
		case <-p.compactc:
			p.compactAndReport()
		}
	}
}

// compactAndReport runs a background compaction, reporting failures
// instead of discarding them: a failed compaction retries next tick (the
// WAL keeps everything until a segment covers it), but silence would hide
// a WAL growing without bound.
func (p *Persistent) compactAndReport() {
	if err := p.Compact(); err != nil {
		fmt.Fprintf(os.Stderr, "storage: background compaction failed (will retry): %v\n", err)
	}
}

// Close stops the background work, syncs outstanding appends, and closes
// the log. The embedded store remains queryable; further durable ingests
// are invalid.
func (p *Persistent) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.stop)
		p.bg.Wait()
		err = p.log.Close()
		p.unlock()
	})
	return err
}

// DurabilityStats is a snapshot of the persistence counters.
type DurabilityStats struct {
	// WALRecords and WALBytes are the log's current depth — batches not
	// yet folded into segments (including not-yet-synced ones).
	WALRecords int
	WALBytes   int64
	// Segments is the number of immutable segment files; SegmentEvents
	// the events they hold.
	Segments      int
	SegmentEvents int
	// CoveredSeq and LastSeq bound the recovery replay: records in
	// (CoveredSeq, LastSeq] replay from the WAL on restart.
	CoveredSeq uint64
	LastSeq    uint64
	// Replayed counts WAL records applied by the last open.
	Replayed    uint64
	Compactions uint64
	// CompactionNanos is the cumulative wall time spent producing segments;
	// WALFsyncs and WALFsyncNanos count the log's fsync calls and their
	// cumulative duration. Together they put numbers on the durability
	// machinery's two costs: the per-commit fsync and the periodic fold.
	CompactionNanos int64
	WALFsyncs       uint64
	WALFsyncNanos   int64
}

// DurabilityStats reports the persistence counters.
func (p *Persistent) DurabilityStats() DurabilityStats {
	records, bytes := p.log.Depth()
	p.segMu.Lock()
	segs, events := len(p.segs), 0
	for _, e := range p.segs {
		events += e.seg.events()
	}
	covered := p.coveredSeq
	p.segMu.Unlock()
	st := DurabilityStats{
		WALRecords:    records,
		WALBytes:      bytes,
		Segments:      segs,
		SegmentEvents: events,
		CoveredSeq:    covered,
		LastSeq:       p.log.LastSeq(),
		Replayed:      p.replayed.Load(),
		Compactions:   p.compactions.Load(),
	}
	st.CompactionNanos = p.compactNanos.Load()
	st.WALFsyncs, st.WALFsyncNanos = p.log.SyncStats()
	return st
}
