package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// randomMatches builds n rows over a small pool of entities, so later rows
// reuse entities earlier batches already sent.
func randomMatches(rng *rand.Rand, n int) []storage.Match {
	ents := make([]*types.Entity, 1+rng.Intn(12))
	for i := range ents {
		ents[i] = &types.Entity{
			ID:      types.EntityID(100 + i),
			Type:    types.EntityType(1 + rng.Intn(3)),
			AgentID: rng.Intn(4),
			Attrs:   map[string]string{"name": strconv.Itoa(rng.Int()), "pid": strconv.Itoa(i)},
		}
	}
	ms := make([]storage.Match, n)
	for i := range ms {
		s, o := ents[rng.Intn(len(ents))], ents[rng.Intn(len(ents))]
		ms[i] = storage.Match{Subj: s, Obj: o, Event: &types.Event{
			ID: types.EventID(i + 1), AgentID: s.AgentID, Subject: s.ID, Object: o.ID,
			Op: types.Op(1 + rng.Intn(types.NumOps)), Start: rng.Int63(), End: rng.Int63(),
			Seq: rng.Uint64(), Amount: rng.Int63(), FailCode: rng.Intn(3),
		}}
	}
	return ms
}

// encodeScan writes ms through ScanWriter in batches of at most per rows.
func encodeScan(t testing.TB, shard int, ms []storage.Match, per int) []byte {
	rec := httptest.NewRecorder()
	sw := NewScanWriter(rec, shard, 7)
	for len(ms) > 0 {
		k := min(per, len(ms))
		if err := sw.Batch(ms[:k]); err != nil {
			t.Fatal(err)
		}
		ms = ms[k:]
	}
	if err := sw.End(); err != nil {
		t.Fatal(err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ScanContentType {
		t.Fatalf("ScanWriter answered Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// decodeScan reads a stream the way a remote cursor does, in consumer
// batches of size per. It reports the rows, the error, and how many bytes
// of the stream were consumed.
func decodeScan(stream []byte, workerIdx, per int) ([]storage.Match, error, int) {
	r := bytes.NewReader(stream)
	s := scanReader{workerIdx: workerIdx, body: io.NopCloser(r), bp: new([]byte), entities: make(map[types.EntityID]*types.Entity)}
	var out []storage.Match
	batch := make([]storage.Match, per)
	for {
		n, err := s.read(batch)
		if err != nil || n == 0 {
			return out, err, len(stream) - r.Len()
		}
		out = append(out, batch[:n]...)
	}
}

// FuzzScanStream encodes random rows through ScanWriter, optionally
// truncates or corrupts the bytes, and decodes them through the remote
// cursor's frame reader. It must never panic; an untouched stream must
// round-trip; and no stream may decode successfully unless the last frame
// it consumed is a trailer counting exactly the rows delivered. The same
// inputs drive a /walship stream through ReadShip (fuzzShipStream), which
// shares the frame reader.
func FuzzScanStream(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(64), uint8(7), uint32(0), uint32(0), byte(0))
	f.Add(int64(2), uint16(5), uint8(255), uint8(3), uint32(40), uint32(0), byte(0))
	f.Add(int64(3), uint16(700), uint8(100), uint8(255), uint32(0), uint32(25), byte(0x80))
	f.Add(int64(4), uint16(0), uint8(1), uint8(1), uint32(0), uint32(2), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, nrows uint16, per, consume uint8, cut, flip uint32, mask byte) {
		fuzzShipStream(t, seed, int(nrows)%50, cut, flip, mask)
		rng := rand.New(rand.NewSource(seed))
		ms := randomMatches(rng, int(nrows)%1000)
		stream := mutate(encodeScan(t, 1, ms, 1+int(per)), cut, flip, mask)
		got, err, used := decodeScan(stream, 1, 1+int(consume))
		if err == nil {
			var want [13]byte
			want[0] = frameEnd
			binary.LittleEndian.PutUint32(want[1:], 8)
			binary.LittleEndian.PutUint64(want[5:], uint64(len(got)))
			if used < len(want) || !bytes.Equal(stream[used-len(want):used], want[:]) {
				t.Fatalf("decoded %d rows without a trailer counting them", len(got))
			}
		}
		switch {
		case cut == 0 && mask == 0:
			if err != nil {
				t.Fatalf("untouched stream: %v", err)
			}
			if len(got) != len(ms) {
				t.Fatalf("round trip: %d rows, want %d", len(got), len(ms))
			}
			for i := range ms {
				if *got[i].Event != *ms[i].Event || !reflect.DeepEqual(*got[i].Subj, *ms[i].Subj) || !reflect.DeepEqual(*got[i].Obj, *ms[i].Obj) {
					t.Fatalf("row %d: got %+v %+v %+v, want %+v %+v %+v", i, *got[i].Event, *got[i].Subj, *got[i].Obj, *ms[i].Event, *ms[i].Subj, *ms[i].Obj)
				}
			}
		case mask == 0:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream cut to %d bytes: error %v, want io.ErrUnexpectedEOF", len(stream), err)
			}
		}
	})
}

// mutate cuts stream to cut%len bytes (cut > 0) and flips the byte at
// flip%len with mask.
func mutate(stream []byte, cut, flip uint32, mask byte) []byte {
	if cut > 0 {
		stream = stream[:int(cut)%len(stream)]
	}
	if mask != 0 && len(stream) > 0 {
		stream[int(flip)%len(stream)] ^= mask
	}
	return stream
}

// fuzzShipStream encodes nrec random tagged batches through WriteShip,
// mutates the stream as FuzzScanStream does, and decodes it through
// ReadShip with an apply that only collects the payloads. It must never
// panic; an untouched stream must round-trip records and applied-state;
// a cut one must fail with io.ErrUnexpectedEOF; and no stream may decode
// successfully unless the last frame it consumed is a trailer counting
// exactly the records delivered.
func fuzzShipStream(t *testing.T, seed int64, nrec int, cut, flip uint32, mask byte) {
	rng := rand.New(rand.NewSource(seed))
	var want [][]byte
	for i := range nrec {
		var ents []types.Entity
		var evs []types.Event
		for _, m := range randomMatches(rng, 1+rng.Intn(8)) {
			ents, evs = append(ents, *m.Subj, *m.Obj), append(evs, *m.Event)
		}
		want = append(want, storage.EncodeBatch(&storage.ReplTag{Epoch: "e", Shard: rng.Intn(3), Seq: uint64(i + 1)}, ents, evs))
	}
	states := []storage.ReplShardState{{Epoch: "e", Shard: 1, Watermark: uint64(nrec), Sparse: []uint64{uint64(nrec) + 2}}}
	rec := httptest.NewRecorder()
	err := WriteShip(rec, func(emit func([]byte) error) ([]storage.ReplShardState, error) {
		for _, payload := range want {
			if err := emit(payload); err != nil {
				return nil, err
			}
		}
		return states, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ShipContentType {
		t.Fatalf("WriteShip answered Content-Type %q", ct)
	}
	stream := mutate(rec.Body.Bytes(), cut, flip, mask)
	r := bytes.NewReader(stream)
	var got [][]byte
	gotStates, err := ReadShip(r, func(payload []byte) error {
		got = append(got, bytes.Clone(payload))
		return nil
	})
	if err == nil {
		// Walk the consumed frames: the last must be a trailer counting
		// exactly the records delivered.
		used, last := len(stream)-r.Len(), 0
		for off := 0; off < used; off += 5 + int(binary.LittleEndian.Uint32(stream[off+1:])) {
			last = off
		}
		if stream[last] != frameEnd || binary.LittleEndian.Uint64(stream[last+5:]) != uint64(len(got)) {
			t.Fatalf("ship decoded %d records without a trailer counting them", len(got))
		}
	}
	switch {
	case cut == 0 && mask == 0:
		if err != nil {
			t.Fatalf("untouched ship stream: %v", err)
		}
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 || !reflect.DeepEqual(gotStates, states) {
			t.Fatalf("ship round trip: %d records and state %+v, want %d and %+v", len(got), gotStates, len(want), states)
		}
	case mask == 0:
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ship stream cut to %d bytes: error %v, want io.ErrUnexpectedEOF", len(stream), err)
		}
	}
}

// TestScanFrameDecodeAllocs bounds what decoding a batch frame allocates:
// a first 256-row frame of generated audit data pays per row for its
// events and the entities it introduces, and a second frame over entities
// already sent allocates its events slice and no entity maps.
func TestScanFrameDecodeAllocs(t *testing.T) {
	st := storage.New(storage.Options{})
	st.Ingest(gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 100, Seed: 1}))
	ms := storage.Drain(st.Scan(context.Background(), &storage.DataQuery{Ops: types.AllOps(), Limit: storage.ScanBatchSize}))
	stream := encodeScan(t, 0, append(ms, ms...), storage.ScanBatchSize)
	// Split the stream into its header, first batch, second batch and end
	// frames.
	var frames [][]byte
	for rest := stream; len(rest) > 0; {
		n := 5 + int(binary.LittleEndian.Uint32(rest[1:]))
		frames, rest = append(frames, rest[:n]), rest[n:]
	}
	if len(frames) != 4 {
		t.Fatalf("stream has %d frames, want header, 2 batches, end", len(frames))
	}
	body := bytes.NewReader(nil)
	s := scanReader{body: io.NopCloser(body), bp: new([]byte)}
	first := testing.AllocsPerRun(20, func() {
		body.Reset(frames[1])
		s.sawHdr, s.entities = true, make(map[types.EntityID]*types.Entity)
		if err := s.frame(); err != nil || len(s.pending) != storage.ScanBatchSize {
			t.Fatalf("first frame: %d rows, %v", len(s.pending), err)
		}
	})
	// About 4 per row today: the events slice, and for each entity the
	// frame introduces its attribute map and strings.
	if perRow := first / storage.ScanBatchSize; perRow > 5 {
		t.Errorf("first batch frame: %.2f allocs per row (%.0f in all), want at most 5", perRow, first)
	}
	second := testing.AllocsPerRun(20, func() {
		body.Reset(frames[2])
		if err := s.frame(); err != nil || len(s.pending) != storage.ScanBatchSize {
			t.Fatalf("second frame: %d rows, %v", len(s.pending), err)
		}
	})
	if second > 2 {
		t.Errorf("batch frame over entities already sent: %.0f allocs, want at most 2", second)
	}
}
