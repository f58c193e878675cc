package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/types"
)

// batchWriter is the write path both store modes share.
type batchWriter interface {
	IngestBatch(tag *ReplTag, d *types.Dataset) (bool, error)
}

// lastRecord returns the payload of the WAL's newest record.
func lastRecord(t *testing.T, p *Persistent) []byte {
	t.Helper()
	var last []byte
	if err := p.log.Replay(0, func(_ uint64, payload []byte) error {
		last = payload
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestIngestBatchMatrix drives the one write path over {in-memory, durable}
// × {untagged, new tag, repeated tag} × {observer attached, quiet: none
// attached}. A repeated tag is a counted no-op: no WAL record, no
// generation bump, no observer call. Every other batch bumps the generation
// once and reaches an attached observer exactly once, after its WAL record;
// on a durable store that record — in the unchanged untagged or tagged
// encoding — is on disk before the batch is applied, and a reopen
// reproduces the store's events and applied-set, with or without an
// observer.
func TestIngestBatchMatrix(t *testing.T) {
	batches := splitDataset(gen.Scenario(gen.SmallConfig()), 2)
	tag := ReplTag{Epoch: "e1", Shard: 0, Seq: 1}
	for _, durable := range []bool{false, true} {
		for _, kind := range []string{"untagged", "new-tag", "repeated-tag"} {
			for _, quiet := range []bool{false, true} {
				mode := "memory"
				if durable {
					mode = "durable"
				}
				t.Run(fmt.Sprintf("%s/%s/quiet=%v", mode, kind, quiet), func(t *testing.T) {
					dir := t.TempDir()
					st := New(Options{})
					var w batchWriter = st
					var p *Persistent
					walSeq := func() uint64 { return 0 }
					if durable {
						p = openOrFatal(t, dir, persistOpts())
						st, w = p.Store, p
						walSeq = p.log.LastSeq
					}
					// The first batch seeds the store; in the repeated case it
					// also applies the tag the second delivery repeats.
					var seedTag *ReplTag
					if kind == "repeated-tag" {
						seedTag = &tag
					}
					if applied, err := w.IngestBatch(seedTag, batches[0]); err != nil || !applied {
						t.Fatalf("seed batch: applied=%v err=%v", applied, err)
					}

					calls, seqAtNotify := 0, uint64(0)
					if !quiet {
						st.SetIngestObserver(func(*types.Dataset, uint64) {
							calls++
							seqAtNotify = walSeq()
						})
					}
					b, batchTag := batches[1], (*ReplTag)(nil)
					switch kind {
					case "new-tag":
						batchTag = &tag
					case "repeated-tag":
						b, batchTag = batches[0], &tag
					}
					gen0, seq0, dup0 := st.Generation(), walSeq(), st.ReplStats().Duplicates
					applied, err := w.IngestBatch(batchTag, b)
					if err != nil {
						t.Fatal(err)
					}

					if kind == "repeated-tag" {
						if applied || st.Generation() != gen0 || walSeq() != seq0 || calls != 0 {
							t.Fatalf("repeated tag: applied=%v generation %d→%d wal seq %d→%d observer calls %d; want a no-op",
								applied, gen0, st.Generation(), seq0, walSeq(), calls)
						}
						if st.ReplStats().Duplicates != dup0+1 {
							t.Fatalf("duplicates = %d, want %d", st.ReplStats().Duplicates, dup0+1)
						}
					} else {
						wantCalls := 1
						if quiet {
							wantCalls = 0 // no observer attached
						}
						if !applied || st.Generation() != gen0+1 || calls != wantCalls {
							t.Fatalf("applied=%v generation %d→%d observer calls %d; want applied, +1, %d calls",
								applied, gen0, st.Generation(), calls, wantCalls)
						}
						if durable {
							if walSeq() != seq0+1 {
								t.Fatalf("wal seq %d→%d, want one record", seq0, walSeq())
							}
							if !quiet && seqAtNotify != seq0+1 {
								t.Fatalf("observer saw wal seq %d; the record must be journaled before the batch applies", seqAtNotify)
							}
							want := EncodeBatch(nil, b.Entities, b.Events)
							if batchTag != nil {
								want = EncodeBatch(batchTag, b.Entities, b.Events)
							}
							if !bytes.Equal(lastRecord(t, p), want) {
								t.Fatal("WAL record payload differs from the batch encoding")
							}
						}
					}

					if durable {
						if err := p.Close(); err != nil {
							t.Fatal(err)
						}
						re := openOrFatal(t, dir, persistOpts())
						assertStoresEqual(t, re.Store, st, "after reopen")
						got, want := re.ReplState("e1", 0), st.ReplState("e1", 0)
						if got.Watermark != want.Watermark || len(got.Sparse) != len(want.Sparse) {
							t.Fatalf("reopened applied-set %+v, want %+v", got, want)
						}
					}
				})
			}
		}
	}
}

// TestIngestJournalFailureAppliesNothing: a batch whose WAL append fails is
// refused and leaves the store exactly as it was. The append is made to fail
// by planting a file where the log's next file must be created.
func TestIngestJournalFailureAppliesNothing(t *testing.T) {
	batches := splitDataset(gen.Scenario(gen.SmallConfig()), 2)
	dir := t.TempDir()
	p := openOrFatal(t, dir, persistOpts())
	if err := p.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.log.Rotate(); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, "wal", fmt.Sprintf("wal-%016x.log", p.log.LastSeq()+1))
	if err := os.WriteFile(next, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	p.Store.SetIngestObserver(func(*types.Dataset, uint64) { calls++ })
	gen0, events0 := p.Generation(), p.EventCount()
	if applied, err := p.IngestBatch(nil, batches[1]); applied || err == nil {
		t.Fatalf("ingest over a failing WAL: applied=%v err=%v; want refused", applied, err)
	}
	if p.Generation() != gen0 || p.EventCount() != events0 || calls != 0 {
		t.Fatalf("refused batch changed the store: generation %d→%d events %d→%d observer calls %d",
			gen0, p.Generation(), events0, p.EventCount(), calls)
	}
}

// TestFsyncLatchRefusesBatches covers the fsyncgate rule: once a WAL fsync
// has failed, the kernel may have dropped the dirty pages and no later sync
// can prove they landed, so the durable store refuses every later batch —
// tagged or untagged — with the latched error and applies nothing: no
// generation bump, no events, no WAL record, no observer call.
func TestFsyncLatchRefusesBatches(t *testing.T) {
	batches := splitDataset(gen.Scenario(gen.SmallConfig()), 2)
	p := openOrFatal(t, t.TempDir(), persistOpts())
	if err := p.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	calls := 0
	p.Store.SetIngestObserver(func(*types.Dataset, uint64) { calls++ })
	failed := errors.New("injected fsync failure")
	p.syncErr.Store(&failed)

	gen0, events0, seq0 := p.Generation(), p.EventCount(), p.log.LastSeq()
	for _, tag := range []*ReplTag{nil, {Epoch: "e1", Shard: 0, Seq: 1}} {
		applied, err := p.IngestBatch(tag, batches[1])
		if applied || !errors.Is(err, failed) {
			t.Fatalf("tag %v after a failed fsync: applied=%v err=%v; want the latched error", tag, applied, err)
		}
	}
	if err := p.Ingest(batches[1]); !errors.Is(err, failed) {
		t.Fatalf("Ingest after a failed fsync: err=%v; want the latched error", err)
	}
	if p.Generation() != gen0 || p.EventCount() != events0 || p.log.LastSeq() != seq0 || calls != 0 {
		t.Fatalf("latched store changed: generation %d→%d events %d→%d wal seq %d→%d observer calls %d",
			gen0, p.Generation(), events0, p.EventCount(), seq0, p.log.LastSeq(), calls)
	}
}
