package storage

import (
	"context"
	"errors"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"sort"
	"testing"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// coldStoreFromV3 writes the dataset as a v3 segment in dir and installs it
// into a fresh store as cold runs (entities hot, events cold).
func coldStoreFromV3(t *testing.T, dir string, opts Options, entities []types.Entity, events []types.Event) (*Store, *segmentV2File) {
	t.Helper()
	sf, err := writeSegmentV3(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatalf("writeSegmentV3: %v", err)
	}
	st := New(opts)
	st.Ingest(&types.Dataset{Entities: entities})
	if err := sf.install(st); err != nil {
		t.Fatalf("install: %v", err)
	}
	t.Cleanup(sf.unmap)
	return st, sf
}

// TestSegmentV3RoundTrip writes a multi-block dataset as a v3 segment and
// requires the cold store to answer exactly like the all-hot reference,
// through both the full-scan and the indexed path.
func TestSegmentV3RoundTrip(t *testing.T) {
	entities, events := v2TestData(3000)
	want := New(Options{})
	want.Ingest(&types.Dataset{Entities: entities, Events: events})

	got, sf := coldStoreFromV3(t, t.TempDir(), Options{}, entities, events)
	if v := sf.formatVersion(); v != 3 {
		t.Fatalf("formatVersion = %d, want 3", v)
	}
	assertStoresEqual(t, got, want, "v3 cold store")

	// Reopen through the generic dispatcher: the magic must route to v3.
	seg, err := openSegmentAny(sf.path)
	if err != nil {
		t.Fatalf("openSegmentAny: %v", err)
	}
	defer seg.(*segmentV2File).unmap()
	if v := seg.formatVersion(); v != 3 {
		t.Fatalf("reopened formatVersion = %d, want 3", v)
	}
}

// TestSegmentV3CompressionSavesSpace writes the same dataset in both
// columnar formats and requires the compressed file to be measurably
// smaller — the acceptance criterion behind the format bump.
func TestSegmentV3CompressionSavesSpace(t *testing.T) {
	entities, events := v2TestData(5000)
	sfV2, err := writeSegmentV2(t.TempDir(), 1, uint64(len(events)), entities, events)
	if err != nil {
		t.Fatal(err)
	}
	defer sfV2.unmap()
	sfV3, err := writeSegmentV3(t.TempDir(), 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sfV3.unmap()

	s2, err := os.Stat(sfV2.path)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := os.Stat(sfV3.path)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Size() >= s2.Size() {
		t.Fatalf("v3 segment is %d bytes, v2 is %d — compression saved nothing", s3.Size(), s2.Size())
	}
	t.Logf("v2 %d bytes, v3 %d bytes (%.1f%% of v2)", s2.Size(), s3.Size(), 100*float64(s3.Size())/float64(s2.Size()))
}

// TestSegmentV3CompressedCounters scans a v3 store and checks the
// compression accounting: stored bytes read must be positive and smaller
// than the raw bytes they decoded to on this highly regular dataset.
func TestSegmentV3CompressedCounters(t *testing.T) {
	entities, events := v2TestData(4000)
	st, _ := coldStoreFromV3(t, t.TempDir(), Options{}, entities, events)
	if n := len(st.Run(context.Background(), &DataQuery{Ops: types.AllOps()})); n != 4000 {
		t.Fatalf("full scan returned %d matches, want 4000", n)
	}
	ss := st.ScanStats()
	if ss.CompressedBytesRead <= 0 || ss.CompressedBytesDecode <= 0 {
		t.Fatalf("compression counters not engaged: %+v", ss)
	}
	if ss.CompressedBytesRead >= ss.CompressedBytesDecode {
		t.Fatalf("read %d stored bytes for %d decoded — no compression on regular data",
			ss.CompressedBytesRead, ss.CompressedBytesDecode)
	}
}

// TestSegmentV3CorruptionTyped damages a v3 file in each structurally
// distinct region and requires a typed ErrSegmentCorrupt from open or scan —
// never a panic, never silent wrong rows.
func TestSegmentV3CorruptionTyped(t *testing.T) {
	entities, events := v2TestData(2500)
	dir := t.TempDir()
	sf, err := writeSegmentV3(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := sf.path
	sf.unmap()
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	layout := readV2Layout(t, pristine)
	if len(layout.entries) != 1 {
		t.Fatalf("expected 1 partition, got %d", len(layout.entries))
	}
	pe := layout.entries[0]

	cases := []struct {
		name string
		mut  func(raw []byte) []byte
	}{
		{"bad-magic", func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }},
		{"truncated-file", func(raw []byte) []byte { return raw[:len(raw)-7] }},
		{"directory-bit-flip", func(raw []byte) []byte { raw[pe.off+16] ^= 0x01; return raw }},
		{"zone-meta-bit-flip", func(raw []byte) []byte { raw[pe.metaOff+segV2ZoneBytes+3] ^= 0x40; return raw }},
		{"block-flag-byte", func(raw []byte) []byte { raw[pe.dataOff] ^= 0x01; return raw }},
		{"block-payload-bit-flip", func(raw []byte) []byte { raw[pe.dataOff+pe.dataLen/2] ^= 0x10; return raw }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mut(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			err := func() error {
				seg, err := openSegmentAny(path)
				if err != nil {
					return err
				}
				defer seg.(*segmentV2File).unmap()
				if _, err := seg.readEntities(); err != nil {
					return err
				}
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
		})
	}
}

// TestColdScanChecksumBeforeFilter: a query whose row filter rejects every
// row inflates no value column — and a flipped bit in one of those columns
// must still fail the scan, because the checksum over the stored bytes runs
// before anything is filtered.
func TestColdScanChecksumBeforeFilter(t *testing.T) {
	entities, events := v2TestData(2500)
	dir := t.TempDir()
	sf, err := writeSegmentV3(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := sf.path
	sf.unmap()
	// No event has a process for an object: every opened block is rejected
	// on its packed columns. Zone maps are off so nothing is pruned unread.
	q := &DataQuery{Ops: types.AllOps(), ObjType: types.EntityProcess}
	scan := func() (ScanStats, error) {
		seg, err := openSegmentV3(path)
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
	if ss.BlocksDecoded != 3 || ss.BlocksFiltered != 3 || ss.ValueColumnsDecoded != 0 {
		t.Fatalf("pristine scan should open and filter 3 blocks without inflating a value column: %+v", ss)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pe := readV2Layout(t, raw).entries[0]
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
	if ss.BlocksFiltered != 0 || ss.ValueColumnsDecoded != 0 {
		t.Fatalf("damage was not caught at open: %+v", ss)
	}
}

// rawV3Block encodes events (one partition, sorted) as a single v3 block and
// wraps it, stored raw and correctly checksummed, in just enough segment for
// openBlock — the way to hand the decoder bytes that are wrong yet pass
// their checksum. mutate edits the encoding before it is sealed.
func rawV3Block(events []types.Event, mutate func(raw []byte, varEnd int) []byte) (*segmentV2File, *segV2Part, *segV2Meta) {
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
	z := segV2Zone{
		count: len(events), minStart: events[0].Start, maxStart: events[len(events)-1].Start,
		minSubj: ^uint32(0), minObj: ^uint32(0),
	}
	for i := range events {
		z.ops = z.ops.Add(events[i].Op)
		z.minSubj, z.maxSubj = min(z.minSubj, slot[events[i].Subject]), max(z.maxSubj, slot[events[i].Subject])
		z.minObj, z.maxObj = min(z.minObj, slot[events[i].Object]), max(z.maxObj, slot[events[i].Object])
	}
	raw := encodeV3Block(nil, events, &z, slot)
	n := len(events)
	packed := (n*bits.Len32(z.maxSubj-z.minSubj)+7)/8 + (n*bits.Len32(z.maxObj-z.minObj)+7)/8 + (n*opWidth(z.ops)+7)/8
	if mutate != nil {
		raw = mutate(raw, len(raw)-packed)
	}
	stored := append([]byte{0}, raw...)
	z.dataLen, z.rawLen = uint32(len(stored)), uint32(len(raw))
	z.crc = crc32.Checksum(stored, castagnoli)
	sf := &segmentV2File{path: "hand-built", version: 3, data: stored}
	sf.mapOnce.Do(func() {}) // data is already in place
	pi := &segV2Part{segV2PartInfo: segV2PartInfo{key: partKey{agent: events[0].AgentID}, nEvents: n, nBlocks: 1}}
	return sf, pi, &segV2Meta{dict: dict, zones: []segV2Zone{z}}
}

// TestLazyDecodeMalformedColumns feeds the decoder checksummed blocks whose
// encoding is wrong in the ways only a decode can notice, and pins both
// halves of the lazy contract: the damage is a typed error, never a panic —
// and it surfaces when the damaged column is asked for, not before.
func TestLazyDecodeMalformedColumns(t *testing.T) {
	_, events := v2TestData(700)
	for i := range events {
		events[i].FailCode = i%5 - 2
		events[i].Amount = int64(i) * 9973 % 70_000
	}

	t.Run("pristine", func(t *testing.T) {
		sf, pi, m := rawV3Block(events, nil)
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, 0, &cols); err != nil {
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
		sf, pi, m := rawV3Block(events, func(raw []byte, varEnd int) []byte {
			for i := varEnd / 2; i < varEnd; i++ {
				raw[i] |= 0x80
			}
			return raw
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, 0, &cols); err != nil {
			t.Fatalf("open: %v (the damage is inside columns nothing has read yet)", err)
		}
		if err := cols.need(1 << colStarts); err != nil {
			t.Fatalf("the intact first column must still decode: %v", err)
		}
		for _, k := range []int{colAmounts, colFails} {
			var cols blockCols
			if err := sf.openBlock(pi, m, 0, 0, &cols); err != nil {
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
		sf, pi, m := rawV3Block(events, func(raw []byte, varEnd int) []byte {
			return append(raw[:varEnd:varEnd], append([]byte{0x00}, raw[varEnd:]...)...)
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, 0, &cols); err != nil {
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
		sf, pi, m := rawV3Block(events, func(raw []byte, varEnd int) []byte {
			return raw[:len(events)*nStoredCols-1]
		})
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, 0, &cols); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("open = %v, want ErrSegmentCorrupt", err)
		}
	})

	t.Run("dictionary-index-out-of-zone", func(t *testing.T) {
		// Probes check what they read: shrink the zone's promise after
		// encoding and the rows beyond it are refused.
		sf, pi, m := rawV3Block(events, nil)
		var cols blockCols
		if err := sf.openBlock(pi, m, 0, 0, &cols); err != nil {
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

	pruned, sf := coldStoreFromV3(t, t.TempDir(), Options{}, entities, events)
	sfRe, err := openSegmentV3(sf.path)
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
	if ps.AttrZoneSkips == 0 {
		t.Fatalf("no attribute-zone skips recorded: %+v", ps)
	}
	if es.AttrZoneSkips != 0 {
		t.Fatalf("pruning-disabled run skipped %d blocks by trigram", es.AttrZoneSkips)
	}
	if ps.BlocksDecoded >= es.BlocksDecoded {
		t.Fatalf("pruned run decoded %d blocks, exhaustive %d — pruning saved nothing",
			ps.BlocksDecoded, es.BlocksDecoded)
	}
}

// TestMixedV2V3SegmentsAnswerIdentically compacts one half of a dataset
// under the legacy-v2 escape hatch and the other under the v3 default, then
// requires the recovered store to equal the uninterrupted in-memory run.
func TestMixedV2V3SegmentsAnswerIdentically(t *testing.T) {
	ds := dsForSegTest(t)
	batches := splitDataset(ds, 4)
	dir := t.TempDir()

	phase := func(legacyV2 bool, bs []*types.Dataset) {
		opts := persistOpts()
		opts.LegacySegmentV2 = legacyV2
		p := openOrFatal(t, dir, opts)
		if err := p.WarmUp(); err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if err := p.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	phase(true, batches[:2])
	phase(false, batches[2:])

	re := openOrFatal(t, dir, persistOpts())
	if err := re.WarmUp(); err != nil {
		t.Fatal(err)
	}
	st := re.DurabilityStats()
	if st.Segments != 2 || st.SegmentsV3 != 1 {
		t.Fatalf("segments = %d (%d v3), want 2 (1 v3)", st.Segments, st.SegmentsV3)
	}
	assertStoresEqual(t, re.Store, memStoreOf(batches), "mixed v2+v3 store")
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
				if err := run.sf.openBlock(run.pi, m, b, rowBase, &cols); err != nil {
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

// dsForSegTest adapts v2TestData into a Dataset spread over two agents and
// days so compaction produces multiple partitions.
func dsForSegTest(t *testing.T) *types.Dataset {
	t.Helper()
	entities, events := v2TestData(2000)
	rng := rand.New(rand.NewSource(99))
	for i := range events {
		events[i].AgentID = 1 + rng.Intn(2)
		events[i].Start += int64(rng.Intn(2)) * 86_400_000
	}
	ents := make([]types.Entity, len(entities))
	copy(ents, entities)
	return types.NewDataset(ents, events)
}

// FuzzSegmentV3 is the v3 counterpart of FuzzSegmentV2: a generated dataset
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
		entities, events := v2TestData(int(n)%2100 + 1)
		for i := range events {
			events[i].AgentID = 1 + rng.Intn(2)
			events[i].Start += int64(rng.Intn(3)) * 86_400_000
			if rng.Intn(4) == 0 {
				events[i].Start = events[rng.Intn(len(events))].Start
			}
		}
		dir := t.TempDir()
		sf, err := writeSegmentV3(dir, 1, uint64(len(events)), entities, events, nil)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		sf.unmap()

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
			seg, err := openSegmentAny(sf.path)
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
			defer seg.(*segmentV2File).unmap()
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
