package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aiql/internal/gen"
	"aiql/internal/types"
)

// persistOpts disables the background loops so tests drive flushing and
// compaction deterministically, and syncs every batch so truncation
// offsets are the only variable.
func persistOpts() PersistOptions {
	return PersistOptions{
		SyncEveryBatch:  true,
		FlushInterval:   -1,
		CompactInterval: -1,
	}
}

// splitDataset cuts a dataset into n event batches; entities all ride in
// the first batch (they must exist before events reference them — the
// same contract /ingest callers follow).
func splitDataset(ds *types.Dataset, n int) []*types.Dataset {
	out := make([]*types.Dataset, 0, n)
	per := (len(ds.Events) + n - 1) / n
	for i := 0; i < len(ds.Events); i += per {
		end := i + per
		if end > len(ds.Events) {
			end = len(ds.Events)
		}
		b := &types.Dataset{Events: ds.Events[i:end]}
		if i == 0 {
			b.Entities = ds.Entities
		}
		out = append(out, b)
	}
	return out
}

// assertStoresEqual compares two stores exhaustively: counts, partition
// layout, entity tables, full event streams, and an indexed query — the
// definition of "recovery rebuilt the same store".
func assertStoresEqual(t *testing.T, got, want *Store, label string) {
	t.Helper()
	if got.EventCount() != want.EventCount() {
		t.Fatalf("%s: event count %d, want %d", label, got.EventCount(), want.EventCount())
	}
	if got.PartitionCount() != want.PartitionCount() {
		t.Fatalf("%s: partitions %d, want %d", label, got.PartitionCount(), want.PartitionCount())
	}
	gd, wd := got.Days(), want.Days()
	if len(gd) != len(wd) {
		t.Fatalf("%s: days %v, want %v", label, gd, wd)
	}
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: days %v, want %v", label, gd, wd)
		}
	}

	want.mu.RLock()
	wantEnts := make(map[types.EntityID]*types.Entity, len(want.entities))
	for id, e := range want.entities {
		wantEnts[id] = e
	}
	want.mu.RUnlock()
	for id, we := range wantEnts {
		ge := got.Entity(id)
		if ge == nil {
			t.Fatalf("%s: entity %d missing", label, id)
		}
		if ge.Type != we.Type || ge.AgentID != we.AgentID || len(ge.Attrs) != len(we.Attrs) {
			t.Fatalf("%s: entity %d differs: %+v vs %+v", label, id, ge, we)
		}
		for k, v := range we.Attrs {
			if ge.Attrs[k] != v {
				t.Fatalf("%s: entity %d attr %q = %q, want %q", label, id, k, ge.Attrs[k], v)
			}
		}
	}

	all := &DataQuery{Ops: types.AllOps()}
	gm, wm := got.Run(context.Background(), all), want.Run(context.Background(), all)
	if len(gm) != len(wm) {
		t.Fatalf("%s: full scan %d matches, want %d", label, len(gm), len(wm))
	}
	for i := range gm {
		a, b := gm[i].Event, wm[i].Event
		if a.ID != b.ID || a.Start != b.Start || a.Seq != b.Seq || a.Op != b.Op ||
			a.Subject != b.Subject || a.Object != b.Object || a.Amount != b.Amount {
			t.Fatalf("%s: match %d differs: %+v vs %+v", label, i, a, b)
		}
	}

	// An indexed path: posting lists and hash indexes must have survived.
	idx := &DataQuery{
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpRead, types.OpWrite),
	}
	if g, w := len(got.Run(context.Background(), idx)), len(want.Run(context.Background(), idx)); g != w {
		t.Fatalf("%s: indexed query %d matches, want %d", label, g, w)
	}
}

// memStoreOf ingests the given batches into a fresh in-memory store — the
// uninterrupted reference run.
func memStoreOf(batches []*types.Dataset) *Store {
	st := New(Options{})
	for _, b := range batches {
		st.Ingest(b)
	}
	return st
}

func openOrFatal(t *testing.T, dir string, opts PersistOptions) *Persistent {
	t.Helper()
	p, err := OpenPersistent(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPersistentRoundTripNoCompaction(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 5)
	dir := t.TempDir()

	p := openOrFatal(t, dir, persistOpts())
	for _, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	want := memStoreOf(batches)
	assertStoresEqual(t, p.Store, want, "before restart")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re := openOrFatal(t, dir, persistOpts())
	st := re.DurabilityStats()
	if st.Replayed != uint64(len(batches)) {
		t.Fatalf("replayed %d WAL records, want %d", st.Replayed, len(batches))
	}
	assertStoresEqual(t, re.Store, want, "after restart (WAL only)")
}

func TestPersistentRoundTripWithCompaction(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 6)
	dir := t.TempDir()

	p := openOrFatal(t, dir, persistOpts())
	for i, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
		// Compact twice mid-stream so segments straddle partitions and the
		// final state mixes segments with a WAL suffix.
		if i == 1 || i == 3 {
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := memStoreOf(batches)
	st := p.DurabilityStats()
	if st.Segments != 2 {
		t.Fatalf("segments = %d, want 2", st.Segments)
	}
	if st.WALRecords != 2 {
		t.Fatalf("WAL depth = %d records, want 2 (batches after last compaction)", st.WALRecords)
	}
	assertStoresEqual(t, p.Store, want, "before restart")
	p.Close()

	re := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re.Store, want, "after restart (segments + WAL)")

	// Segment data must actually come from segment files, not the WAL.
	st = re.DurabilityStats()
	if st.Segments != 2 || st.SegmentEvents == 0 {
		t.Fatalf("reopened stats: %+v", st)
	}
	if st.Replayed != 2 {
		t.Fatalf("reopened replayed %d records, want 2", st.Replayed)
	}

	// A third compaction after restart folds the remaining WAL records.
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := re.DurabilityStats(); st.WALRecords != 0 || st.Segments != 3 {
		t.Fatalf("after final compaction: %+v", st)
	}
	assertStoresEqual(t, re.Store, want, "after final compaction")

	// And a fully-compacted store still reopens identically.
	re.Close()
	re2 := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re2.Store, want, "after restart (segments only)")
}

// TestTornWALTailAtEveryOffset is the "kill ingestion at arbitrary WAL
// offsets" harness: the WAL's tail is cut at a sweep of byte offsets and
// each recovery must produce exactly the store of the batches that fully
// landed — never an error, never a partial batch.
func TestTornWALTailAtEveryOffset(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 4)

	// Build one pristine WAL.
	master := t.TempDir()
	p := openOrFatal(t, master, persistOpts())
	for _, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	walDir := filepath.Join(master, "wal")
	names, err := os.ReadDir(walDir)
	if err != nil || len(names) != 1 {
		t.Fatalf("wal files: %v (%v)", names, err)
	}
	pristine, err := os.ReadFile(filepath.Join(walDir, names[0].Name()))
	if err != nil {
		t.Fatal(err)
	}

	// Batch boundaries inside the file: magic, then per record 16-byte
	// header + payload.
	boundaries := []int64{8}
	off := int64(8)
	for _, b := range batches {
		off += 16 + int64(len(EncodeBatch(nil, b.Entities, b.Events)))
		boundaries = append(boundaries, off)
	}
	if boundaries[len(boundaries)-1] != int64(len(pristine)) {
		t.Fatalf("boundary math: %d vs file %d", boundaries[len(boundaries)-1], len(pristine))
	}

	// Sweep cuts: each batch boundary, plus offsets that tear the header,
	// the payload start, the payload middle, and the final byte.
	cuts := map[int64]int{} // cut offset -> batches surviving
	for i, b := range boundaries {
		cuts[b] = i
		if i < len(boundaries)-1 {
			cuts[b+1] = i  // torn header
			cuts[b+16] = i // header complete, empty payload
			cuts[b+17] = i // torn payload
			next := boundaries[i+1]
			cuts[(b+next)/2] = i // mid-payload
			cuts[next-1] = i     // one byte short
		}
	}

	for cut, nBatches := range cuts {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", names[0].Name()), pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenPersistent(dir, persistOpts())
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		want := memStoreOf(batches[:nBatches])
		assertStoresEqual(t, re.Store, want, fmt.Sprintf("cut at %d (%d batches)", cut, nBatches))
		re.Close()
	}
}

// TestCrashDuringCompaction aborts a compaction at each of its named crash
// points and asserts recovery rebuilds the full store from whatever mix of
// WAL and segment files the crash left behind.
func TestCrashDuringCompaction(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 4)
	want := memStoreOf(batches)
	crashErr := errors.New("injected crash")

	for _, point := range []string{"compact-collected", "segment-written", "before-wal-remove"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			p := openOrFatal(t, dir, persistOpts())
			for _, b := range batches {
				if err := p.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			p.crashHook = func(at string) error {
				if at == point {
					return crashErr
				}
				return nil
			}
			if err := p.Compact(); !errors.Is(err, crashErr) {
				t.Fatalf("Compact returned %v, want injected crash", err)
			}
			// Abandon p without Close (a crash closes nothing) — but a
			// dead process does drop its directory flock, so the in-process
			// simulation must release it explicitly before reopening.
			p.unlock()
			re := openOrFatal(t, dir, persistOpts())
			assertStoresEqual(t, re.Store, want, "after crash at "+point)

			// The half-finished state must also compact cleanly now.
			if err := re.Compact(); err != nil {
				t.Fatal(err)
			}
			if st := re.DurabilityStats(); st.WALRecords != 0 {
				t.Fatalf("WAL depth after recovery compaction = %d, want 0", st.WALRecords)
			}
			assertStoresEqual(t, re.Store, want, "after recovery compaction at "+point)
		})
	}
}

// TestStaleCompactionTempFileIgnored plants garbage .tmp files (the
// leftovers of a segment write that never reached its rename) and asserts
// recovery sweeps them and proceeds from the WAL.
func TestStaleCompactionTempFileIgnored(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 3)
	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	for _, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	segDir := filepath.Join(dir, "seg")
	stale := filepath.Join(segDir, segFileName(1, 3)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re.Store, memStoreOf(batches), "after stale tmp sweep")
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp file survived recovery: %v", err)
	}
}

// TestMissingSegmentStillCoveredByWAL is the "crash before the fsync'd
// segment landed" case: the WAL was not yet truncated, so deleting the
// segment file must lose nothing.
func TestMissingSegmentStillCoveredByWAL(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 3)
	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	for _, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Compact but crash before the WAL removal: segment exists AND the
	// WAL still covers it.
	p.crashHook = func(at string) error {
		if at == "before-wal-remove" {
			return errors.New("crash")
		}
		return nil
	}
	if err := p.Compact(); err == nil {
		t.Fatal("expected injected crash")
	}
	p.unlock() // a dead process releases its flock; the simulation must too

	// Delete the segment — the fsync'd file is gone, the WAL is not.
	segDir := filepath.Join(dir, "seg")
	ents, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			if err := os.Remove(filepath.Join(segDir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("removed %d segments, want 1", removed)
	}

	re := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re.Store, memStoreOf(batches), "after segment loss covered by WAL")
}

// TestPersistentConcurrentIngestQuery holds the durable path to the same
// bar as the in-memory store: ingest batches while snapshot queries run,
// under -race, and reopen to the same final state.
func TestPersistentConcurrentIngestQuery(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 8)
	dir := t.TempDir()
	opts := persistOpts()
	opts.SyncEveryBatch = false // exercise the group-commit path
	opts.FlushInterval = time.Millisecond
	p, err := OpenPersistent(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		q := &DataQuery{Ops: types.AllOps()}
		for i := 0; i < 50; i++ {
			c := p.Store.Scan(context.Background(), q)
			Drain(c)
			c.Close()
		}
	}()
	for i, b := range batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-done
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re.Store, memStoreOf(batches), "after concurrent run")
}

// TestSeqResumesAfterFullCompaction: once every WAL file has been folded
// into segments and deleted, a reopened log must continue the sequence
// after the covered range. A log restarting at 1 would journal new
// batches with already-covered sequence numbers — and the *next* recovery
// would silently skip them as compacted duplicates.
func TestSeqResumesAfterFullCompaction(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 4)
	dir := t.TempDir()

	p := openOrFatal(t, dir, persistOpts())
	for _, b := range batches[:2] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := p.DurabilityStats(); st.WALRecords != 0 {
		t.Fatalf("WAL depth after full compaction = %d, want 0", st.WALRecords)
	}
	p.Close()

	// Reopen over an empty WAL and ingest the rest.
	re := openOrFatal(t, dir, persistOpts())
	if st := re.DurabilityStats(); st.LastSeq != st.CoveredSeq {
		t.Fatalf("reopened seq state: last=%d covered=%d, want equal", st.LastSeq, st.CoveredSeq)
	}
	for _, b := range batches[2:] {
		if err := re.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := re.DurabilityStats(); st.LastSeq <= st.CoveredSeq {
		t.Fatalf("new batches journaled at seq %d <= covered %d — they would be skipped on recovery", st.LastSeq, st.CoveredSeq)
	}
	re.Close()

	re2 := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re2.Store, memStoreOf(batches), "after compact+reopen+ingest+reopen")
}

// TestRecoveryPreservesEntityFirstWriteWins: entity registration is
// first-write-wins, and recovery must resolve a re-registered entity id
// the same way the live process did — segment entities (older sequences)
// install before the WAL suffix replays, in segment order.
func TestRecoveryPreservesEntityFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	mkBatch := func(exe string, evID uint64, start int64) *types.Dataset {
		return &types.Dataset{
			Entities: []types.Entity{
				{ID: 7, Type: types.EntityProcess, AgentID: 1, Attrs: map[string]string{types.AttrExeName: exe}},
				{ID: 8, Type: types.EntityFile, AgentID: 1, Attrs: map[string]string{types.AttrName: "/f"}},
			},
			Events: []types.Event{{ID: types.EventID(evID), AgentID: 1, Subject: 7, Object: 8, Op: types.OpRead, Start: start, Seq: evID}},
		}
	}
	// Batch 1 wins the entity registration and is compacted into a
	// segment; batch 2 re-registers entity 7 with different attrs and
	// stays in the WAL.
	if err := p.Ingest(mkBatch("/bin/first", 1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(mkBatch("/bin/second", 2, 2000)); err != nil {
		t.Fatal(err)
	}
	if got := p.Entity(7).Attrs[types.AttrExeName]; got != "/bin/first" {
		t.Fatalf("live store entity 7 = %q, want first registration to win", got)
	}
	p.Close()

	re := openOrFatal(t, dir, persistOpts())
	if got := re.Entity(7).Attrs[types.AttrExeName]; got != "/bin/first" {
		t.Fatalf("recovered entity 7 = %q, want /bin/first (segment before WAL replay)", got)
	}
	// The events from both batches are all present regardless.
	if got := re.EventCount(); got != 2 {
		t.Fatalf("recovered %d events, want 2", got)
	}
}

// TestDataDirLockRefusesSecondOpener: two processes appending to one WAL
// would interleave records; the directory flock must refuse the second
// opener while the first lives, and admit it after Close.
func TestDataDirLockRefusesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	if _, err := OpenPersistent(dir, persistOpts()); err == nil {
		t.Fatal("second OpenPersistent on a locked directory succeeded")
	}
	p.Close()
	p2, err := OpenPersistent(dir, persistOpts())
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	p2.Close()
}
