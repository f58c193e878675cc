package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// segTestData builds one deterministic single-partition dataset: n events
// on agent 1, all on 2017-03-01, starts ascending — enough rows to span
// several 1024-row blocks when n is large.
func segTestData(n int) ([]types.Entity, []types.Event) {
	const base = int64(1488326400000) // 2017-03-01T00:00:00Z
	var entities []types.Entity
	for id := 1; id <= 10; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: fmt.Sprintf("/bin/p%d", id)},
		})
	}
	for id := 11; id <= 20; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityFile, AgentID: 1,
			Attrs: map[string]string{types.AttrName: fmt.Sprintf("/tmp/f%d", id)},
		})
	}
	ops := []types.Op{types.OpRead, types.OpWrite, types.OpExecute}
	events := make([]types.Event, n)
	for i := range events {
		events[i] = types.Event{
			ID:      types.EventID(i + 1),
			AgentID: 1,
			Subject: types.EntityID(1 + i%10),
			Object:  types.EntityID(11 + i%10),
			Op:      ops[i%len(ops)],
			Start:   base + int64(i)*1000,
			End:     base + int64(i)*1000 + 5,
			Seq:     uint64(i + 1),
			Amount:  int64(i * 7),
		}
	}
	return entities, events
}

// coldStoreFrom writes the dataset as a segment in dir and installs it into
// a fresh store as cold runs (entities hot, events cold).
func coldStoreFrom(t *testing.T, dir string, opts Options, entities []types.Entity, events []types.Event) (*Store, *segmentFile) {
	t.Helper()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	st := New(opts)
	st.Ingest(&types.Dataset{Entities: entities})
	if err := sf.install(st); err != nil {
		t.Fatalf("install: %v", err)
	}
	t.Cleanup(sf.unmap)
	return st, sf
}

// TestSegmentV3RoundTrip writes a dataset as a segment, installs it cold,
// and requires the store to be exhaustively indistinguishable from one that
// ingested the same data hot — through the full-scan and the indexed path,
// and without thawing a partition.
func TestSegmentV3RoundTrip(t *testing.T) {
	scenario := gen.Scenario(gen.SmallConfig())
	multiBlock := func() *types.Dataset {
		entities, events := segTestData(3000)
		return &types.Dataset{Entities: entities, Events: events}
	}()
	for _, tc := range []struct {
		name string
		ds   *types.Dataset
	}{
		{"multi-block", multiBlock},
		{"scenario", scenario},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := New(Options{})
			want.Ingest(tc.ds)
			got, _ := coldStoreFrom(t, t.TempDir(), Options{}, tc.ds.Entities, tc.ds.Events)
			assertStoresEqual(t, got, want, "cold store")
			if stats := got.ScanStats(); stats[Thaws] != 0 {
				t.Fatalf("round-trip scans thawed %d partitions, want 0", stats[Thaws])
			}
		})
	}
}

// TestSegmentThawOnOutOfOrderIngest appends an event older than the cold
// prefix and requires the partition to thaw — decode, merge, and keep
// answering exactly like the all-hot store.
func TestSegmentThawOnOutOfOrderIngest(t *testing.T) {
	entities, events := segTestData(2500)
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)

	late := types.Event{
		ID: 9001, AgentID: 1, Subject: 1, Object: 11, Op: types.OpWrite,
		Start: events[100].Start, End: events[100].Start + 1, Seq: 9001,
	}
	st.Ingest(&types.Dataset{Events: []types.Event{late}})
	if stats := st.ScanStats(); stats[Thaws] != 1 {
		t.Fatalf("thaws = %d, want 1", stats[Thaws])
	}
	if err := st.ColdError(); err != nil {
		t.Fatalf("thaw latched error: %v", err)
	}

	want := New(Options{})
	want.Ingest(&types.Dataset{Entities: entities, Events: events})
	want.Ingest(&types.Dataset{Events: []types.Event{late}})
	assertStoresEqual(t, st, want, "after thaw")
}

// segLayout holds the header/directory offsets a tampering test needs.
type segLayout struct {
	nParts  int
	entries []segLayoutEntry
}

type segLayoutEntry struct {
	off              int // entry offset in the file
	nDict            int
	metaOff, metaLen int
	dataOff, dataLen int
}

func readSegLayout(raw []byte) segLayout {
	l := segLayout{nParts: int(binary.LittleEndian.Uint32(raw[24:28]))}
	for i := 0; i < l.nParts; i++ {
		off := segHeaderLen + i*segDirEntry
		l.entries = append(l.entries, segLayoutEntry{
			off:     off,
			nDict:   int(binary.LittleEndian.Uint32(raw[off+24 : off+28])),
			metaOff: int(binary.LittleEndian.Uint64(raw[off+48 : off+56])),
			metaLen: int(binary.LittleEndian.Uint64(raw[off+56 : off+64])),
			dataOff: int(binary.LittleEndian.Uint64(raw[off+64 : off+72])),
			dataLen: int(binary.LittleEndian.Uint64(raw[off+72 : off+80])),
		})
	}
	return l
}

// resealMeta recomputes every partition's meta CRC and the directory CRC,
// so a tampered meta region reaches the reader's own consistency checks
// instead of failing a checksum upstream of them.
func resealMeta(raw []byte) {
	l := readSegLayout(raw)
	for _, e := range l.entries {
		metaCRC := crc32.Checksum(raw[e.metaOff:e.metaOff+e.metaLen], castagnoli)
		binary.LittleEndian.PutUint32(raw[e.off+28:e.off+32], metaCRC)
	}
	dirCRC := crc32.Checksum(raw[segHeaderLen:segHeaderLen+l.nParts*segDirEntry], castagnoli)
	binary.LittleEndian.PutUint32(raw[52:56], dirCRC)
}

// TestSegmentV3CompressionSavesSpace bounds the file bytes per event —
// blocks, zone maps, dictionary, postings and entities together — against
// the uncompressed row width: compression has to more than pay for the
// metadata the scan path relies on.
func TestSegmentV3CompressionSavesSpace(t *testing.T) {
	entities, events := segTestData(5000)
	sf, err := writeSegment(t.TempDir(), 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(fi.Size()) / float64(len(events))
	if perEvent >= eventWireBytes/4 {
		t.Fatalf("segment holds %.1f bytes per event, want under a quarter of the %d-byte uncompressed row", perEvent, eventWireBytes)
	}
	t.Logf("%d bytes, %.1f per event (%.0f%% of the uncompressed row)", fi.Size(), perEvent, 100*perEvent/eventWireBytes)
}

// TestSegmentV3CompressedCounters scans a cold store and checks the
// compression accounting: stored bytes read must be positive and smaller
// than the raw bytes they decoded to on this highly regular dataset.
func TestSegmentV3CompressedCounters(t *testing.T) {
	entities, events := segTestData(4000)
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	if n := len(st.Run(context.Background(), &DataQuery{Ops: types.AllOps()})); n != 4000 {
		t.Fatalf("full scan returned %d matches, want 4000", n)
	}
	ss := st.ScanStats()
	if ss[CompressedBytesRead] <= 0 || ss[CompressedBytesDecoded] <= 0 {
		t.Fatalf("compression counters not engaged: %+v", ss)
	}
	if ss[CompressedBytesRead] >= ss[CompressedBytesDecoded] {
		t.Fatalf("read %d stored bytes for %d decoded — no compression on regular data",
			ss[CompressedBytesRead], ss[CompressedBytesDecoded])
	}
}

// TestSegmentV3CorruptionTyped damages a segment in each structurally
// distinct region and requires a typed ErrSegmentCorrupt from open or scan —
// never a panic, never silent wrong rows.
func TestSegmentV3CorruptionTyped(t *testing.T) {
	entities, events := segTestData(2500)
	dir := t.TempDir()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := sf.path
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	layout := readSegLayout(pristine)
	if len(layout.entries) != 1 {
		t.Fatalf("expected 1 partition, got %d", len(layout.entries))
	}
	pe := layout.entries[0]
	zone0 := pe.metaOff + pe.nDict*8

	cases := []struct {
		name    string
		mut     func(raw []byte) []byte
		wantMsg string // substring the error must carry, "" for any
	}{
		{"bad-magic", func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }, "bad magic"},
		{"truncated-file", func(raw []byte) []byte { return raw[:len(raw)-7] }, ""},
		{"directory-bit-flip", func(raw []byte) []byte { raw[pe.off+16] ^= 0x01; return raw }, ""},
		{"zone-meta-bit-flip", func(raw []byte) []byte { raw[zone0+segZoneBytes+3] ^= 0x40; return raw }, ""},
		{"block-flag-byte", func(raw []byte) []byte { raw[pe.dataOff] ^= 0x01; return raw }, ""},
		{"block-payload-bit-flip", func(raw []byte) []byte { raw[pe.dataOff+pe.dataLen/2] ^= 0x10; return raw }, ""},
		{"zone-op-set-omits-block-op", func(raw []byte) []byte {
			// Drop the lowest op from block 0's op set — its rows still hold
			// it, and the packed op width (set by the highest op) is
			// unchanged — then re-seal the checksums above the zone, so only
			// the reader's own row-vs-zone check can notice.
			ops := binary.LittleEndian.Uint16(raw[zone0+24:])
			binary.LittleEndian.PutUint16(raw[zone0+24:], ops&(ops-1))
			resealMeta(raw)
			return raw
		}, "outside zone op set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mut(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			err := func() error {
				seg, err := openSegment(path)
				if err != nil {
					return err
				}
				defer seg.unmap()
				if _, err := seg.readEntities(); err != nil {
					return err
				}
				// Scan with zone maps disabled so damaged blocks cannot hide
				// behind the pruning the damage itself corrupted.
				st := New(Options{DisableZoneMaps: true})
				st.Ingest(&types.Dataset{Entities: entities})
				if err := seg.install(st); err != nil {
					return err
				}
				c := st.Scan(context.Background(), &DataQuery{Ops: types.AllOps()})
				defer c.Close()
				Drain(c)
				return c.Err()
			}()
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestRetiredSegmentFormatRefused plants a file in each retired segment
// format beside a live WAL and segment, and requires recovery to refuse the
// directory with a typed error naming the file and its format — without
// skipping the file and without touching a byte of seg/ or wal/.
func TestRetiredSegmentFormatRefused(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	batches := splitDataset(ds, 3)
	for _, magic := range []string{"AIQLSEG1", "AIQLSEG2"} {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			p, err := OpenPersistent(dir, persistOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if err := p.Ingest(b); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := p.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if st := p.DurabilityStats(); st.Segments != 1 || st.WALRecords == 0 {
				t.Fatalf("setup: %d segments, %d WAL records; want 1 segment and a live WAL", st.Segments, st.WALRecords)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			name := segFileName(1000, 2000)
			retired := append([]byte(magic), bytes.Repeat([]byte{0x5A}, 200)...)
			if err := os.WriteFile(filepath.Join(dir, "seg", name), retired, 0o644); err != nil {
				t.Fatal(err)
			}

			before := dirContents(t, dir)
			re, err := OpenPersistent(dir, persistOpts())
			if err == nil {
				re.Close()
				t.Fatal("recovery opened a directory holding a retired-format segment")
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			for _, want := range []string{name, magic, "retired"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			after := dirContents(t, dir)
			if len(after) != len(before) {
				t.Fatalf("recovery changed the listings: %d files before, %d after", len(before), len(after))
			}
			for path, b := range before {
				if a, ok := after[path]; !ok || !bytes.Equal(a, b) {
					t.Fatalf("recovery changed or removed %s", path)
				}
			}
		})
	}
}

// dirContents maps every file under dir's seg/ and wal/ to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, sub := range []string{"seg", "wal"} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			path := filepath.Join(sub, e.Name())
			b, err := os.ReadFile(filepath.Join(dir, path))
			if err != nil {
				t.Fatal(err)
			}
			out[path] = b
		}
	}
	return out
}

// TestColdScanChecksumBeforeFilter: a query whose row filter rejects every
// row inflates no value column — and a flipped bit in one of those columns
// must still fail the scan, because the checksum over the stored bytes runs
// before anything is filtered.
func TestColdScanChecksumBeforeFilter(t *testing.T) {
	entities, events := segTestData(2500)
	dir := t.TempDir()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := sf.path
	// No event has a process for an object: every opened block is rejected
	// on its packed columns. Zone maps are off so nothing is pruned unread.
	q := &DataQuery{Ops: types.AllOps(), ObjType: types.EntityProcess}
	scan := func() (ScanStats, error) {
		seg, err := openSegment(path)
		if err != nil {
			return ScanStats{}, err
		}
		defer seg.unmap()
		st := New(Options{DisableZoneMaps: true})
		st.Ingest(&types.Dataset{Entities: entities})
		if err := seg.install(st); err != nil {
			return ScanStats{}, err
		}
		qc := *q
		c := st.Scan(context.Background(), &qc)
		defer c.Close()
		if n := len(Drain(c)); n != 0 {
			t.Fatalf("scan returned %d matches, want 0", n)
		}
		return st.ScanStats(), c.Err()
	}

	ss, err := scan()
	if err != nil {
		t.Fatalf("pristine scan: %v", err)
	}
	if ss[BlocksDecoded] != 3 || ss[BlocksFiltered] != 3 || ss[ValueColumnsDecoded] != 0 {
		t.Fatalf("pristine scan should open and filter 3 blocks without inflating a value column: %+v", ss)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pe := readSegLayout(raw).entries[0]
	// A few bytes into the first block's payload: inside the starts column,
	// whether the block was stored compressed or raw.
	raw[pe.dataOff+6] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err = scan()
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("scan over a damaged, never-inflated column: err = %v, want ErrSegmentCorrupt", err)
	}
	if ss[BlocksFiltered] != 0 || ss[ValueColumnsDecoded] != 0 {
		t.Fatalf("damage was not caught at open: %+v", ss)
	}
}

// rawBlock encodes events (one partition, sorted) as a single block and
// wraps it, stored raw and correctly checksummed, in just enough segment for
// openBlock — the way to hand the decoder bytes that are wrong yet pass
// their checksum. mutate edits the encoding before it is sealed.
func rawBlock(events []types.Event, mutate func(raw []byte, varEnd int) []byte) (*segmentFile, *segPart, *segMeta) {
	var dict []types.EntityID
	slot := make(map[types.EntityID]uint32)
	for i := range events {
		for _, id := range []types.EntityID{events[i].Subject, events[i].Object} {
			if _, ok := slot[id]; !ok {
				slot[id] = 0
				dict = append(dict, id)
			}
		}
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	for i, id := range dict {
		slot[id] = uint32(i)
	}
	z := segZone{
		count: len(events), minStart: events[0].Start, maxStart: events[len(events)-1].Start,
		minSubj: ^uint32(0), minObj: ^uint32(0),
	}
	for i := range events {
		z.ops = z.ops.Add(events[i].Op)
		z.minSubj, z.maxSubj = min(z.minSubj, slot[events[i].Subject]), max(z.maxSubj, slot[events[i].Subject])
		z.minObj, z.maxObj = min(z.minObj, slot[events[i].Object]), max(z.maxObj, slot[events[i].Object])
	}
	raw := encodeBlock(nil, events, &z, slot)
	n := len(events)
	packed := (n*bits.Len32(z.maxSubj-z.minSubj)+7)/8 + (n*bits.Len32(z.maxObj-z.minObj)+7)/8 + (n*opWidth(z.ops)+7)/8
	if mutate != nil {
		raw = mutate(raw, len(raw)-packed)
	}
	stored := append([]byte{0}, raw...)
	z.dataLen, z.rawLen = uint32(len(stored)), uint32(len(raw))
	z.crc = crc32.Checksum(stored, castagnoli)
	sf := &segmentFile{path: "hand-built", data: stored}
	sf.mapOnce.Do(func() {}) // data is already in place
	pi := &segPart{segPartInfo: segPartInfo{key: partKey{agent: events[0].AgentID}, nEvents: n, nBlocks: 1}}
	return sf, pi, &segMeta{dict: dict, zones: []segZone{z}}
}

// TestLazyDecodeMalformedColumns feeds the decoder checksummed blocks whose
// encoding is wrong in the ways only a decode can notice, and pins both
// halves of the lazy contract: the damage is a typed error, never a panic —
// and it surfaces when the damaged column is asked for, not before.
func TestLazyDecodeMalformedColumns(t *testing.T) {
	_, events := segTestData(700)
	for i := range events {
		events[i].FailCode = i%5 - 2
		events[i].Amount = int64(i) * 9973 % 70_000
	}

	t.Run("pristine", func(t *testing.T) {
		sf, pi, m := rawBlock(events, nil)
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, &cols); err != nil {
			t.Fatal(err)
		}
		// Out of order and piecemeal, to walk the column-offset memo.
		for _, mask := range []uint8{1 << colAmounts, 1 << colEnds, 1 << colFails, allStoredCols} {
			if err := cols.need(mask); err != nil {
				t.Fatalf("need(%06b): %v", mask, err)
			}
		}
		for i := range events {
			var ev types.Event
			if _, _, err := cols.event(i, m, &ev); err != nil {
				t.Fatal(err)
			}
			if ev != events[i] {
				t.Fatalf("row %d: %+v, want %+v", i, ev, events[i])
			}
		}
	})

	t.Run("truncated-varint-columns", func(t *testing.T) {
		// Turn the tail of the varint section into one endless code: the
		// skip-scan toward any later column runs out of terminators.
		sf, pi, m := rawBlock(events, func(raw []byte, varEnd int) []byte {
			for i := varEnd / 2; i < varEnd; i++ {
				raw[i] |= 0x80
			}
			return raw
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, &cols); err != nil {
			t.Fatalf("open: %v (the damage is inside columns nothing has read yet)", err)
		}
		if err := cols.need(1 << colStarts); err != nil {
			t.Fatalf("the intact first column must still decode: %v", err)
		}
		for _, k := range []int{colAmounts, colFails} {
			var cols blockCols
			if err := sf.openBlock(pi, m, 0, &cols); err != nil {
				t.Fatal(err)
			}
			if err := cols.need(1 << k); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("need(column %d) = %v, want ErrSegmentCorrupt", k, err)
			}
			// The failure latches: the block is not half-usable afterwards.
			if _, ok := cols.Int64Column(types.EvtAttrStart); ok || cols.err == nil {
				t.Fatal("a failed block still served a column")
			}
		}
	})

	t.Run("surplus-code", func(t *testing.T) {
		// One code too many in front of the packed tail: every column still
		// holds n well-formed codes, but the last one no longer ends where
		// the tail begins.
		sf, pi, m := rawBlock(events, func(raw []byte, varEnd int) []byte {
			return append(raw[:varEnd:varEnd], append([]byte{0x00}, raw[varEnd:]...)...)
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, &cols); err != nil {
			t.Fatal(err)
		}
		if err := cols.need(1 << colAmounts); err != nil {
			t.Fatalf("need(amounts): %v", err)
		}
		if err := cols.need(1 << colFails); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("need(fails) = %v, want ErrSegmentCorrupt", err)
		}
	})

	t.Run("no-room-for-packed-tail", func(t *testing.T) {
		sf, pi, m := rawBlock(events, func(raw []byte, varEnd int) []byte {
			return raw[:len(events)*nStoredCols-1]
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, &cols); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("open = %v, want ErrSegmentCorrupt", err)
		}
	})

	t.Run("dictionary-index-out-of-zone", func(t *testing.T) {
		// Probes check what they read: shrink the zone's promise after
		// encoding and the rows beyond it are refused.
		sf, pi, m := rawBlock(events, nil)
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, &cols); err != nil {
			t.Fatal(err)
		}
		cols.subj.hi--
		bad := 0
		for i := range events {
			if _, ok := cols.subj.at(i); !ok {
				bad++
			}
		}
		if bad != len(events)/10 {
			t.Fatalf("%d rows refused, want %d", bad, len(events)/10)
		}
	})
}

// TestColdScanLazyBlocks is the WarmUp regression guard: installing a
// segment-backed store decodes zero blocks, and a narrow-window query
// decodes only the blocks its window can touch.
func TestColdScanLazyBlocks(t *testing.T) {
	entities, events := segTestData(3000) // 3 blocks: 1024+1024+952
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)

	if stats := st.ScanStats(); stats[BlocksDecoded] != 0 {
		t.Fatalf("install decoded %d blocks, want 0 (lazy)", stats[BlocksDecoded])
	}

	// A window covering only the first 100 events: one block can match.
	w := timeutil.Window{From: timeutil.Millis(events[0].Start), To: timeutil.Millis(events[100].Start)}
	got := st.Run(context.Background(), &DataQuery{Ops: types.AllOps(), Window: w})
	if len(got) != 100 {
		t.Fatalf("narrow window matched %d events, want 100", len(got))
	}
	stats := st.ScanStats()
	if stats[BlocksConsidered] != 3 {
		t.Fatalf("blocks considered = %d, want 3", stats[BlocksConsidered])
	}
	if stats[BlocksDecoded] != 1 {
		t.Fatalf("narrow window decoded %d blocks, want 1", stats[BlocksDecoded])
	}
	if stats[BlocksSkipped] != 2 {
		t.Fatalf("narrow window skipped %d blocks, want 2", stats[BlocksSkipped])
	}

	// A full scan decodes the remaining blocks — everything stays readable.
	if n := len(st.Run(context.Background(), &DataQuery{Ops: types.AllOps()})); n != len(events) {
		t.Fatalf("full scan matched %d events, want %d", n, len(events))
	}
	if stats := st.ScanStats(); stats[BlocksDecoded] != 1+3 {
		t.Fatalf("total decoded = %d, want 4", stats[BlocksDecoded])
	}
}

// TestZoneMapPruningDifferentialStorage runs the same window/op/entity
// queries with pruning on and off and requires byte-identical results, with
// the counters proving pruning actually skipped work.
func TestZoneMapPruningDifferentialStorage(t *testing.T) {
	entities, events := segTestData(4000)
	pruned, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	exhaustive, _ := coldStoreFrom(t, t.TempDir(), Options{DisableZoneMaps: true}, entities, events)

	rng := rand.New(rand.NewSource(7))
	queries := []*DataQuery{
		{Ops: types.AllOps()},
		{Ops: types.NewOpSet(types.OpRead)},
		{Ops: types.NewOpSet(types.OpConnect)}, // absent from the data: pure skip
		{Ops: types.AllOps(), SubjType: types.EntityProcess, ObjType: types.EntityFile},
	}
	for i := 0; i < 8; i++ {
		lo := events[rng.Intn(len(events))].Start
		queries = append(queries, &DataQuery{
			Ops:    types.AllOps(),
			Window: timeutil.Window{From: timeutil.Millis(lo), To: timeutil.Millis(lo + int64(rng.Intn(500_000)))},
		})
	}

	for i, q := range queries {
		a, b := pruned.Run(context.Background(), q), exhaustive.Run(context.Background(), q)
		if len(a) != len(b) {
			t.Fatalf("query %d: pruned %d matches, exhaustive %d", i, len(a), len(b))
		}
		for j := range a {
			if *a[j].Event != *b[j].Event {
				t.Fatalf("query %d match %d: %+v vs %+v", i, j, a[j].Event, b[j].Event)
			}
		}
	}

	ps, es := pruned.ScanStats(), exhaustive.ScanStats()
	if ps[BlocksSkipped] == 0 {
		t.Fatal("pruning-enabled store skipped no blocks")
	}
	if es[BlocksSkipped] != 0 {
		t.Fatalf("pruning-disabled store skipped %d blocks, want 0", es[BlocksSkipped])
	}
	if ps[BlocksDecoded] >= es[BlocksDecoded] {
		t.Fatalf("pruned store decoded %d blocks, exhaustive %d — pruning saved nothing",
			ps[BlocksDecoded], es[BlocksDecoded])
	}
}

// attrZoneData builds a block-segregated dataset for trigram pruning: a
// candidate pool larger than the dictionary-index map limit (so the
// membership pruner stands down), events whose first three blocks reference
// only "bravo" processes and whose last block references an "alpha" one.
func attrZoneData() ([]types.Entity, []types.Event) {
	const base = int64(1488326400000) // 2017-03-01T00:00:00Z
	var entities []types.Entity
	for id := 1; id <= 1100; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: "/bin/alpha-worker"},
		})
	}
	for id := 2001; id <= 2004; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: "/bin/bravo-daemon"},
		})
	}
	entities = append(entities, types.Entity{
		ID: 3000, Type: types.EntityFile, AgentID: 1,
		Attrs: map[string]string{types.AttrName: "/tmp/out"},
	})
	events := make([]types.Event, 4096)
	for i := range events {
		subj := types.EntityID(2001 + i%4) // bravo
		if i >= 3*1024 {
			subj = 1 // alpha: confined to the final block
		}
		events[i] = types.Event{
			ID: types.EventID(i + 1), AgentID: 1,
			Subject: subj, Object: 3000, Op: types.OpWrite,
			Start: base + int64(i)*1000, End: base + int64(i)*1000 + 5,
			Seq: uint64(i + 1), Amount: int64(i),
		}
	}
	return entities, events
}

// TestSegmentV3AttrZonePruning is the differential for trigram attribute
// zone maps: a LIKE predicate whose candidate set is too large for
// dictionary-index pruning must still skip the blocks that cannot contain a
// matching subject, and must return exactly the rows an unpruned scan does.
func TestSegmentV3AttrZonePruning(t *testing.T) {
	entities, events := attrZoneData()
	q := func() *DataQuery {
		return &DataQuery{
			SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%alpha%"),
			ObjType:  types.EntityFile,
			Ops:      types.NewOpSet(types.OpWrite),
		}
	}

	pruned, sf := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	sfRe, err := openSegment(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := New(Options{DisableZoneMaps: true})
	exhaustive.Ingest(&types.Dataset{Entities: entities})
	if err := sfRe.install(exhaustive); err != nil {
		t.Fatal(err)
	}
	defer sfRe.unmap()

	pm, em := pruned.Run(context.Background(), q()), exhaustive.Run(context.Background(), q())
	if len(pm) != len(em) {
		t.Fatalf("pruned scan %d matches, exhaustive %d", len(pm), len(em))
	}
	if len(pm) != 1024 {
		t.Fatalf("got %d matches, want the 1024 alpha-block rows", len(pm))
	}
	for i := range pm {
		if pm[i].Event.ID != em[i].Event.ID {
			t.Fatalf("match %d: event %d vs %d", i, pm[i].Event.ID, em[i].Event.ID)
		}
	}

	ps, es := pruned.ScanStats(), exhaustive.ScanStats()
	if ps[AttrZoneSkips] == 0 {
		t.Fatalf("no attribute-zone skips recorded: %+v", ps)
	}
	if es[AttrZoneSkips] != 0 {
		t.Fatalf("pruning-disabled run skipped %d blocks by trigram", es[AttrZoneSkips])
	}
	if ps[BlocksDecoded] >= es[BlocksDecoded] {
		t.Fatalf("pruned run decoded %d blocks, exhaustive %d — pruning saved nothing",
			ps[BlocksDecoded], es[BlocksDecoded])
	}
}

// lazyDecodeAgrees reopens every cold block of st, clips it to a row range
// derived from clip, decodes only the value columns in need, and compares
// them — and the packed-column probes — with the run's full decode.
func lazyDecodeAgrees(t *testing.T, st *Store, need uint8, clip int) error {
	sn := st.Snapshot()
	defer sn.Close()
	var cols blockCols
	for _, p := range sn.parts {
		for _, run := range p.cold {
			full, _, _, err := run.decodeAll()
			if err != nil {
				return err
			}
			m, err := run.meta()
			if err != nil {
				return err
			}
			rowBase := 0
			for b := range m.zones {
				if err := run.sf.openBlock(run.pi, m, b, &cols); err != nil {
					return err
				}
				want := full[rowBase : rowBase+cols.n]
				rowBase += cols.n
				lo := clip % cols.n
				hi := lo + 1 + (clip/7)%(cols.n-lo)
				cols.clip(lo, hi)
				if err := cols.need(need); err != nil {
					return err
				}
				for k := 0; k < nStoredCols; k++ {
					if need&(1<<k) == 0 {
						continue
					}
					for i := lo; i < hi; i++ {
						ev := &want[i]
						wantVal := [nStoredCols]int64{ev.Start, ev.End, int64(ev.ID), int64(ev.Seq), ev.Amount, int64(ev.FailCode)}[k]
						if got := cols.vals[k][i]; got != wantVal {
							t.Fatalf("block %d column %d row %d (rows [%d,%d), need %06b): %d, want %d", b, k, i, lo, hi, need, got, wantVal)
						}
					}
				}
				for i := lo; i < hi; i++ {
					sdi, sok := cols.subj.at(i)
					odi, ook := cols.obj.at(i)
					op, opok := cols.opAt(i)
					if !sok || !ook || !opok {
						return cols.corrupt("row %d: packed column outside zone promise", i)
					}
					if m.dict[sdi] != want[i].Subject || m.dict[odi] != want[i].Object || op != want[i].Op {
						t.Fatalf("block %d row %d: packed probes disagree with the full decode", b, i)
					}
				}
			}
		}
	}
	return nil
}

// FuzzSegmentV3 is the round-trip and robustness fuzz: a generated dataset
// must survive write → open → cold scan byte-for-byte, and a one-byte
// mutation anywhere in the file must produce either identical results or a
// typed ErrSegmentCorrupt — never a panic and never silent wrong rows. need
// and clip then drive the lazy decoder directly: every block is reopened,
// clipped to a row range drawn from clip, asked for the value columns in
// need only, and held to the full decode of the same run.
func FuzzSegmentV3(f *testing.F) {
	f.Add(int64(1), uint16(10), -1, byte(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(300), 60, byte(0xFF), uint8(1<<colAmounts), uint16(7))
	f.Add(int64(3), uint16(1500), 200, byte(0x01), uint8(1<<colEnds|1<<colSeqs), uint16(999))
	f.Add(int64(4), uint16(0), 0, byte(0x80), uint8(allStoredCols), uint16(12345))
	f.Add(int64(5), uint16(2099), -1, byte(0), uint8(1<<colFails), uint16(40000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mutOff int, mutByte byte, need uint8, clip uint16) {
		rng := rand.New(rand.NewSource(seed))
		entities, events := segTestData(int(n)%2100 + 1)
		// Shuffle starts across days and agents so multiple partitions,
		// unsorted input, and duplicate timestamps are all exercised.
		for i := range events {
			events[i].AgentID = 1 + rng.Intn(2)
			events[i].Start += int64(rng.Intn(3)) * 86_400_000
			if rng.Intn(4) == 0 {
				events[i].Start = events[rng.Intn(len(events))].Start
			}
		}
		dir := t.TempDir()
		sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
		if err != nil {
			t.Fatalf("write: %v", err)
		}

		raw, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		mutated := false
		if mutOff >= 0 && mutOff < len(raw) && raw[mutOff]^mutByte != raw[mutOff] {
			raw[mutOff] ^= mutByte
			mutated = true
			if err := os.WriteFile(sf.path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		want := New(Options{})
		want.Ingest(&types.Dataset{Entities: entities, Events: events})
		wantMatches := want.Run(context.Background(), &DataQuery{Ops: types.AllOps()})

		err = func() error {
			seg, err := openSegment(sf.path)
			if err != nil {
				return err
			}
			if _, err := seg.readEntities(); err != nil {
				return err
			}
			st := New(Options{DisableZoneMaps: true})
			st.Ingest(&types.Dataset{Entities: entities})
			if err := seg.install(st); err != nil {
				return err
			}
			defer seg.unmap()
			c := st.Scan(context.Background(), &DataQuery{Ops: types.AllOps()})
			defer c.Close()
			got := Drain(c)
			if err := c.Err(); err != nil {
				return err
			}
			if len(got) != len(wantMatches) {
				t.Fatalf("scan returned %d matches, want %d", len(got), len(wantMatches))
			}
			for i := range got {
				if *got[i].Event != *wantMatches[i].Event {
					t.Fatalf("match %d: %+v, want %+v", i, got[i].Event, wantMatches[i].Event)
				}
			}
			return lazyDecodeAgrees(t, st, need&allStoredCols, int(clip))
		}()
		if err != nil {
			if !mutated {
				t.Fatalf("pristine segment failed: %v", err)
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("mutation produced untyped error: %v", err)
			}
		}
	})
}
