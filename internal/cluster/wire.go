package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
	"aiql/internal/wal"
)

// WireQuery is the JSON form of a storage.DataQuery as POSTed to a worker's
// /scan endpoint. Everything the engine synthesizes crosses the wire —
// including the allow-sets and extra predicates constrained execution
// pushed down — so a worker executes exactly the data query a local scan
// would have. Operations and entity types travel as names, predicates as
// pred.Node trees; both decode into freshly compiled values on the worker.
type WireQuery struct {
	Agents   []int      `json:"agents,omitempty"`
	From     int64      `json:"from,omitempty"`
	To       int64      `json:"to,omitempty"`
	SubjType string     `json:"subj_type,omitempty"`
	ObjType  string     `json:"obj_type,omitempty"`
	SubjPred *pred.Node `json:"subj_pred,omitempty"`
	ObjPred  *pred.Node `json:"obj_pred,omitempty"`
	EvtPred  *pred.Node `json:"evt_pred,omitempty"`
	Ops      []string   `json:"ops,omitempty"`
	// SubjAllowed/ObjAllowed restrict entities to scheduler-discovered ids.
	// The Has* flags distinguish "no constraint" (absent) from "empty
	// allow-set" (a query that can match nothing): omitempty erases the
	// difference on the slice alone.
	SubjAllowed    []uint64 `json:"subj_allowed,omitempty"`
	HasSubjAllowed bool     `json:"has_subj_allowed,omitempty"`
	ObjAllowed     []uint64 `json:"obj_allowed,omitempty"`
	HasObjAllowed  bool     `json:"has_obj_allowed,omitempty"`
	Limit          int      `json:"limit,omitempty"`
	ForceScan      bool     `json:"force_scan,omitempty"`
	// Shard/NShards, when NShards > 0, ask the worker to return only rows
	// whose home shard (under the semantics-aware placement over NShards
	// workers) is Shard. A replicated worker's store holds two shards'
	// data — its own and the one it replicates — and an unfiltered scan
	// would double-count rows across the gather. The worker applies any
	// Limit after this filter.
	Shard   int `json:"shard,omitempty"`
	NShards int `json:"nshards,omitempty"`
}

// EncodeQuery converts a data query to its wire form.
func EncodeQuery(q *storage.DataQuery) (*WireQuery, error) {
	w := &WireQuery{Agents: q.Agents, From: q.Window.From, To: q.Window.To, Limit: q.Limit, ForceScan: q.ForceScan}
	if q.SubjType != types.EntityInvalid {
		w.SubjType = q.SubjType.String()
	}
	if q.ObjType != types.EntityInvalid {
		w.ObjType = q.ObjType.String()
	}
	var errs [3]error
	w.SubjPred, errs[0] = pred.Encode(q.SubjPred)
	w.ObjPred, errs[1] = pred.Encode(q.ObjPred)
	w.EvtPred, errs[2] = pred.Encode(q.EvtPred)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	for op := types.Op(1); int(op) <= types.NumOps; op++ {
		if q.Ops.Contains(op) {
			w.Ops = append(w.Ops, op.String())
		}
	}
	w.SubjAllowed, w.HasSubjAllowed = encodeIDSet(q.SubjAllowed)
	w.ObjAllowed, w.HasObjAllowed = encodeIDSet(q.ObjAllowed)
	return w, nil
}

// DataQuery rebuilds the storage-level query on the worker side.
func (w *WireQuery) DataQuery() (*storage.DataQuery, error) {
	q := &storage.DataQuery{Agents: w.Agents, Window: timeutil.Window{From: w.From, To: w.To}, Limit: w.Limit, ForceScan: w.ForceScan}
	var errs [5]error
	q.SubjType, errs[0] = decodeEntityType(w.SubjType)
	q.ObjType, errs[1] = decodeEntityType(w.ObjType)
	q.SubjPred, errs[2] = pred.Decode(w.SubjPred)
	q.ObjPred, errs[3] = pred.Decode(w.ObjPred)
	q.EvtPred, errs[4] = pred.Decode(w.EvtPred)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	for _, name := range w.Ops {
		op, ok := types.ParseOp(name)
		if !ok {
			return nil, fmt.Errorf("cluster: unknown operation %q", name)
		}
		q.Ops = q.Ops.Add(op)
	}
	q.SubjAllowed = decodeIDSet(w.SubjAllowed, w.HasSubjAllowed)
	q.ObjAllowed = decodeIDSet(w.ObjAllowed, w.HasObjAllowed)
	return q, nil
}

// decodeEntityType parses an entity type name; "" means any type.
func decodeEntityType(name string) (types.EntityType, error) {
	if t, ok := types.ParseEntityType(name); ok || name == "" {
		return t, nil
	}
	return types.EntityInvalid, fmt.Errorf("cluster: unknown entity type %q", name)
}

func encodeIDSet(set map[types.EntityID]struct{}) ([]uint64, bool) {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, uint64(id))
	}
	return ids, set != nil
}

func decodeIDSet(ids []uint64, has bool) map[types.EntityID]struct{} {
	if !has {
		return nil
	}
	set := make(map[types.EntityID]struct{}, len(ids))
	for _, id := range ids {
		set[types.EntityID(id)] = struct{}{}
	}
	return set
}

// Every server-to-server stream is a sequence of frames: a kind byte, a u32
// little-endian payload length and the payload. frameWriter.frame appends
// the only frame header and readFrame reads it, for /scan and /walship
// alike; a /walship batch frame carries a coordinator's /ingest body.
const (
	// ScanContentType is the media type of a /scan response: frames in the
	// order header batch* (end | err). A header carries the worker's shard
	// (i64, -1 when unlabelled) and store generation (u64); a batch, one
	// cursor batch in the storage batch codec (storage.AppendBatch), holding
	// the entities first sent on this stream and the events, whose Subject
	// and Object name each row's entities; the end trailer, the row count
	// (u64); an err frame, a message. The trailer tells a complete result
	// from a connection that died mid-stream, which must surface as a worker
	// failure, never a short result.
	ScanContentType = "application/x-aiql-scan"
	// ShipContentType is the media type of a /walship response: frames in
	// the order batch* (end | err). A batch is one WAL record's payload
	// unmodified; the end trailer, the record count (u64) and the shipper's
	// applied-state (JSON, the repl-state.json layout).
	ShipContentType = "application/x-aiql-walship"
	// BatchContentType is the media type of a coordinator's /ingest body:
	// one tagged batch, the WAL record layout (storage.EncodeBatch).
	BatchContentType = "application/x-aiql-batch"
	// ReplRoleHeader names the copy a tagged /ingest delivers: "primary" or
	// "replica".
	ReplRoleHeader = "X-Aiql-Repl-Role"
)

const (
	frameHeader byte = iota + 1
	frameBatch
	frameEnd
	frameErr
)

// maxFrameBytes bounds a frame's payload at a WAL record's bound, the
// largest payload any stream carries. readFrame grows its buffer as the
// payload arrives, so a corrupt length costs at most the bytes sent.
const maxFrameBytes = wal.MaxRecordBytes

// framePool holds the frame buffers on both ends of a stream.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// readFrame reads one frame into *buf and returns its kind and payload,
// which *buf holds until the next call. Every stream ends in its own
// trailer, so an EOF anywhere is io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf *[]byte) (byte, []byte, error) {
	var h [5]byte
	_, err := io.ReadFull(r, h[:])
	size := int(binary.LittleEndian.Uint32(h[1:]))
	if err == nil && size > maxFrameBytes {
		return 0, nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte bound", size, maxFrameBytes)
	}
	b := (*buf)[:0]
	for err == nil && len(b) < size {
		n := min(size-len(b), 1<<20)
		b = slices.Grow(b, n)
		var m int
		m, err = io.ReadFull(r, b[len(b):len(b)+n])
		b = b[:len(b)+m]
	}
	*buf = b
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return h[0], b, err
}

// frameWriter buffers a response's frames in a pooled buffer and writes
// them out; ScanWriter and WriteShip are built on it.
type frameWriter struct {
	w  http.ResponseWriter
	bp *[]byte // frames not yet written
}

func newFrameWriter(w http.ResponseWriter, contentType string) frameWriter {
	w.Header().Set("Content-Type", contentType)
	fw := frameWriter{w: w, bp: framePool.Get().(*[]byte)}
	*fw.bp = (*fw.bp)[:0]
	return fw
}

// frame buffers one frame whose payload add appends.
func (fw *frameWriter) frame(kind byte, add func([]byte) []byte) {
	b := append(*fw.bp, kind, 0, 0, 0, 0)
	at := len(b)
	b = add(b)
	binary.LittleEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	*fw.bp = b
}

// write sends the buffered frames in one call and flushes them mid-stream.
// The last frame is left unflushed: net/http sends it in one write with the
// chunked terminator, so the client reads EOF with it and its transport can
// reuse the connection. It releases the buffer.
func (fw *frameWriter) write(last bool) error {
	_, err := fw.w.Write(*fw.bp)
	*fw.bp = (*fw.bp)[:0]
	if f, ok := fw.w.(http.Flusher); ok && !last && err == nil {
		f.Flush()
	} else if last {
		framePool.Put(fw.bp)
		fw.bp = nil
	}
	return err
}

// Fail reports an error in-band, in place of the trailer.
func (fw *frameWriter) Fail(err error) error {
	fw.frame(frameErr, func(b []byte) []byte { return append(b, err.Error()...) })
	return fw.write(true)
}

// WantContentType refuses a peer's response in another wire format (an
// older aiqld in a mixed-version cluster), naming both types.
func WantContentType(h http.Header, want string) error {
	if ct := h.Get("Content-Type"); ct != want {
		return fmt.Errorf("answered Content-Type %q, want %q (is every node running the same aiqld?)", ct, want)
	}
	return nil
}

// ScanWriter encodes a /scan response, the stream's only encoder. Each
// entity crosses a stream once, in the first batch that references it.
type ScanWriter struct {
	frameWriter
	sent map[types.EntityID]bool
	ents []types.Entity
	evs  []types.Event
	rows int
}

// NewScanWriter sets the response's content type and buffers the header
// frame, which goes out with the first batch or with the trailer.
func NewScanWriter(w http.ResponseWriter, shard int, generation uint64) *ScanWriter {
	sw := &ScanWriter{frameWriter: newFrameWriter(w, ScanContentType), sent: make(map[types.EntityID]bool)}
	sw.frame(frameHeader, func(b []byte) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, uint64(int64(shard))), generation)
	})
	return sw
}

// Batch writes one cursor batch as a batch frame and flushes it, so a large
// result streams batch by batch.
func (sw *ScanWriter) Batch(ms []storage.Match) error {
	sw.ents, sw.evs = sw.ents[:0], sw.evs[:0]
	for _, m := range ms {
		for _, e := range [2]*types.Entity{m.Subj, m.Obj} {
			if !sw.sent[e.ID] {
				sw.sent[e.ID] = true
				sw.ents = append(sw.ents, *e)
			}
		}
		sw.evs = append(sw.evs, *m.Event)
	}
	sw.rows += len(ms)
	sw.frame(frameBatch, func(b []byte) []byte { return storage.AppendBatch(b, sw.ents, sw.evs) })
	return sw.write(false)
}

// End writes the trailer.
func (sw *ScanWriter) End() error {
	sw.frame(frameEnd, func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, uint64(sw.rows)) })
	return sw.write(true)
}

// WriteShip answers a /walship request: ship emits each WAL record's
// payload and returns the applied-state the trailer carries.
func WriteShip(w http.ResponseWriter, ship func(emit func(payload []byte) error) ([]storage.ReplShardState, error)) error {
	fw, records := newFrameWriter(w, ShipContentType), 0
	states, err := ship(func(payload []byte) error {
		records++
		fw.frame(frameBatch, func(b []byte) []byte { return append(b, payload...) })
		return fw.write(false)
	})
	if err != nil {
		return fw.Fail(err)
	}
	js, _ := json.Marshal(states)
	fw.frame(frameEnd, func(b []byte) []byte {
		return append(binary.LittleEndian.AppendUint64(b, uint64(records)), js...)
	})
	return fw.write(true)
}

// ReadShip decodes a /walship response body, handing each record's payload
// to apply in order (the payload is reused once apply returns), and returns
// the shipper's applied-state once a trailer counting exactly the records
// delivered is in.
func ReadShip(body io.Reader, apply func(payload []byte) error) ([]storage.ReplShardState, error) {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	for records := 0; ; {
		kind, p, err := readFrame(body, bp)
		if err != nil {
			return nil, fmt.Errorf("ship stream truncated after %d records: %w", records, err)
		}
		switch kind {
		case frameBatch:
			if err := apply(p); err != nil {
				return nil, err
			}
			records++
		case frameEnd:
			if len(p) < 8 || binary.LittleEndian.Uint64(p) != uint64(records) {
				return nil, fmt.Errorf("ship trailer does not count the %d records delivered", records)
			}
			var states []storage.ReplShardState
			if err := json.Unmarshal(p[8:], &states); err != nil {
				return nil, fmt.Errorf("malformed ship trailer: %w", err)
			}
			return states, nil
		case frameErr:
			return nil, fmt.Errorf("peer ship failed: %s", p)
		default:
			return nil, fmt.Errorf("unknown frame kind %d on a ship stream", kind)
		}
	}
}
