package storage

import (
	"errors"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/types"
)

// taggedBatches assigns each batch a dense (epoch, shard 0, seq) tag — the
// shape a coordinator's scatter ingest produces for one home shard.
func taggedBatches(ds *types.Dataset, n int) ([]*types.Dataset, []ReplTag) {
	batches := splitDataset(ds, n)
	tags := make([]ReplTag, len(batches))
	for i := range batches {
		tags[i] = ReplTag{Epoch: "e1", Shard: 0, Seq: uint64(i + 1)}
	}
	return batches, tags
}

// TestTaggedIngestDedup covers the in-memory applied-set: a re-posted tag
// is a no-op, a quiet apply skips the ingest observer (replica copies must
// not re-fire standing rules), and the stats counters track both outcomes.
func TestTaggedIngestDedup(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches, tags := taggedBatches(ds, 3)

	st := New(Options{})
	var observed int
	st.SetIngestObserver(func(d *types.Dataset, gen uint64) { observed++ })

	for i, b := range batches {
		quiet := i == len(batches)-1 // last batch plays the replica copy
		if applied, _ := st.IngestBatch(&tags[i], b, quiet); !applied {
			t.Fatalf("first apply of %s reported duplicate", tags[i])
		}
	}
	if observed != len(batches)-1 {
		t.Fatalf("observer fired %d times, want %d (quiet apply must skip it)", observed, len(batches)-1)
	}

	// Retry storm: every tag again, in and out of order.
	before := st.EventCount()
	for i := len(batches) - 1; i >= 0; i-- {
		if applied, _ := st.IngestBatch(&tags[i], batches[i], false); applied {
			t.Fatalf("re-apply of %s was not suppressed", tags[i])
		}
	}
	if st.EventCount() != before {
		t.Fatalf("duplicate applies changed the store: %d events, want %d", st.EventCount(), before)
	}
	rs := st.ReplStats()
	if rs.Applied != uint64(len(batches)) || rs.Duplicates != uint64(len(batches)) {
		t.Fatalf("repl stats applied=%d duplicates=%d, want %d/%d", rs.Applied, rs.Duplicates, len(batches), len(batches))
	}
	state := st.ReplState("e1", 0)
	if state.Watermark != uint64(len(batches)) || len(state.Sparse) != 0 {
		t.Fatalf("applied-set did not collapse to a watermark: %+v", state)
	}
}

// TestReplStateSurvivesCompactionAndReopen is the durability half of the
// dedup guarantee: tags applied before a compaction (folded into segments +
// sidecar) and tags still in the WAL must BOTH be remembered across a
// restart, or a coordinator retry after the restart would double-apply.
func TestReplStateSurvivesCompactionAndReopen(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches, tags := taggedBatches(ds, 4)
	want := memStoreOf(batches)

	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	// First half: applied, then compacted into segments (WAL records gone,
	// sidecar is the only durable record of their tags).
	for i := 0; i < 2; i++ {
		if applied, err := p.IngestBatch(&tags[i], batches[i], false); err != nil || !applied {
			t.Fatalf("apply %s: applied=%v err=%v", tags[i], applied, err)
		}
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	// Second half: applied but left in the WAL (tagged records on disk).
	for i := 2; i < 4; i++ {
		if applied, err := p.IngestBatch(&tags[i], batches[i], false); err != nil || !applied {
			t.Fatalf("apply %s: applied=%v err=%v", tags[i], applied, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re := openOrFatal(t, dir, persistOpts())
	assertStoresEqual(t, re.Store, want, "after reopen")
	for i, tag := range tags {
		applied, err := re.IngestBatch(&tag, batches[i], false)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatalf("reopened store re-applied %s (recovered applied-set lost it)", tag)
		}
	}
	if re.Store.EventCount() != want.EventCount() {
		t.Fatalf("post-retry count %d, want %d", re.Store.EventCount(), want.EventCount())
	}
	if state := re.Store.ReplState("e1", 0); state.Watermark != uint64(len(tags)) {
		t.Fatalf("recovered watermark %d, want %d", state.Watermark, len(tags))
	}
}

// TestReplStateCrashMatrix extends the compaction crash-point matrix to the
// replication applied-set: a crash at any point inside Compact — including
// the window after the segment rename but before the sidecar write and WAL
// removal — must not forget a single applied tag, because the covered WAL
// files still hold the tags until RemoveThrough and recovery re-scans them.
func TestReplStateCrashMatrix(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches, tags := taggedBatches(ds, 4)
	want := memStoreOf(batches)
	crashErr := errors.New("injected crash")

	for _, point := range []string{"compact-collected", "segment-written", "before-wal-remove"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			p := openOrFatal(t, dir, persistOpts())
			for i, b := range batches {
				if applied, err := p.IngestBatch(&tags[i], b, false); err != nil || !applied {
					t.Fatalf("apply %s: applied=%v err=%v", tags[i], applied, err)
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
			p.unlock()

			re := openOrFatal(t, dir, persistOpts())
			assertStoresEqual(t, re.Store, want, "after crash at "+point)
			for i, tag := range tags {
				applied, err := re.IngestBatch(&tag, batches[i], false)
				if err != nil {
					t.Fatal(err)
				}
				if applied {
					t.Fatalf("crash at %s forgot tag %s; a coordinator retry would double-apply", point, tag)
				}
			}
			if re.Store.EventCount() != want.EventCount() {
				t.Fatalf("post-retry count %d, want %d", re.Store.EventCount(), want.EventCount())
			}
			// The recovered state must also survive a clean compact+reopen.
			if err := re.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := openOrFatal(t, dir, persistOpts())
			if applied, err := re2.IngestBatch(&tags[0], batches[0], false); err != nil || applied {
				t.Fatalf("tag %s lost after compact+reopen: applied=%v err=%v", tags[0], applied, err)
			}
		})
	}
}

// TestShipReplicatedFiltersShards checks the WAL-ship source: only tagged
// records survive the filter, a shard set narrows the stream, and the
// returned state matches what was shipped.
func TestShipReplicatedFiltersShards(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 4)

	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	// Two shards' tags interleaved with one untagged batch.
	tagOf := []ReplTag{
		{Epoch: "e1", Shard: 0, Seq: 1},
		{Epoch: "e1", Shard: 1, Seq: 1},
		{Epoch: "e1", Shard: 0, Seq: 2},
	}
	for i := 0; i < 3; i++ {
		if _, err := p.IngestBatch(&tagOf[i], batches[i], false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Ingest(batches[3]); err != nil { // untagged: never shipped
		t.Fatal(err)
	}

	var got []ReplTag
	states, err := p.ShipReplicated(map[int]bool{0: true}, func(payload []byte) error {
		tag, _, _, err := DecodeMaybeTagged(payload)
		if err != nil {
			return err
		}
		got = append(got, *tag)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != tagOf[0] || got[1] != tagOf[2] {
		t.Fatalf("shard-0 ship returned %v, want [%s %s]", got, tagOf[0], tagOf[2])
	}
	if len(states) != 1 || states[0].Shard != 0 || states[0].Watermark != 2 {
		t.Fatalf("ship state %+v, want shard 0 watermark 2", states)
	}
}
