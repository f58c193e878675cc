package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
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

// ScanContentType is the media type of a /scan response: frames of a kind
// byte, a u32 little-endian payload length and the payload, in the order
// header batch* (end | err). A header carries the worker's shard (i64, -1
// when unlabelled) and store generation (u64); a batch, one cursor batch in
// the storage batch codec (storage.AppendBatch), holding the entities first
// sent on this stream and the events, whose Subject and Object name each
// row's entities; the end trailer, the row count (u64); an err frame, a
// message. The trailer tells a complete result from a connection that died
// mid-stream, which must surface as a worker failure, never a short result.
const ScanContentType = "application/x-aiql-scan"

const (
	frameHeader byte = iota + 1
	frameBatch
	frameEnd
	frameErr
)

// maxFrameBytes bounds a payload before a reader allocates for it, far
// above a batch of storage.ScanBatchSize rows and their entities. Frame
// buffers on both ends of a stream come from framePool.
const maxFrameBytes = 16 << 20

var framePool = sync.Pool{New: func() any { return new([]byte) }}

// ScanWriter encodes a /scan response, the stream's only encoder. Each
// entity crosses a stream once, in the first batch that references it.
type ScanWriter struct {
	w    http.ResponseWriter
	bp   *[]byte // frames not yet written
	sent map[types.EntityID]bool
	ents []types.Entity
	evs  []types.Event
	rows int
}

// NewScanWriter sets the response's content type and buffers the header
// frame, which goes out with the first batch or with the trailer.
func NewScanWriter(w http.ResponseWriter, shard int, generation uint64) *ScanWriter {
	w.Header().Set("Content-Type", ScanContentType)
	sw := &ScanWriter{w: w, bp: framePool.Get().(*[]byte), sent: make(map[types.EntityID]bool)}
	*sw.bp = (*sw.bp)[:0]
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
	return sw.write(true)
}

// End writes the trailer unflushed: net/http sends it in one write with the
// chunked terminator, so the client reads EOF with the last frame and its
// transport can reuse the connection.
func (sw *ScanWriter) End() error {
	sw.frame(frameEnd, func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, uint64(sw.rows)) })
	return sw.write(false)
}

// Fail reports a scan error in-band, in place of the trailer.
func (sw *ScanWriter) Fail(err error) error {
	sw.frame(frameErr, func(b []byte) []byte { return append(b, err.Error()...) })
	return sw.write(false)
}

// frame buffers one frame whose payload add appends.
func (sw *ScanWriter) frame(kind byte, add func([]byte) []byte) {
	b := append(*sw.bp, kind, 0, 0, 0, 0)
	at := len(b)
	b = add(b)
	binary.LittleEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	*sw.bp = b
}

// write sends the buffered frames in one call and flushes a batch; the
// last frame is left unflushed and releases the buffer.
func (sw *ScanWriter) write(batch bool) error {
	_, err := sw.w.Write(*sw.bp)
	*sw.bp = (*sw.bp)[:0]
	if f, ok := sw.w.(http.Flusher); ok && batch && err == nil {
		f.Flush()
	} else if !batch {
		framePool.Put(sw.bp)
		sw.bp = nil
	}
	return err
}
