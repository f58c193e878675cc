package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// remoteCursor streams one worker's /scan response as a storage.Cursor.
// The HTTP request is issued immediately on creation (on a goroutine, so
// sibling workers stream in parallel from the moment the coordinator's Scan
// returns); Next decodes frames on the consumer's goroutine, with TCP flow
// control providing the backpressure bounded channels provide locally.
//
// A stream that ends without the worker's trailer — the connection died,
// the worker crashed mid-scan — surfaces as an error, so a truncated result
// can never pass for a complete one. A complete stream is read to EOF,
// which returns its connection to the transport's pool.
type remoteCursor struct {
	ctx    context.Context
	cancel context.CancelFunc
	worker string
	// shard is the logical shard gathered (named in worker errors); the
	// reader's workerIdx is the worker contacted, a replica after failover.
	shard int
	scanReader

	respCh chan respOrErr
	// span is the worker leg's trace span (nil when untraced); ended with
	// the leg's row count when the cursor finishes.
	span *obs.Span
	err  error
	done bool
}

type respOrErr struct {
	resp *http.Response
	err  error
}

// newRemoteCursor starts a /scan request against one worker. ctx should be
// the coordinator's per-scan context: canceling it aborts the request (or
// the in-flight body read) promptly.
func newRemoteCursor(ctx context.Context, client *http.Client, worker string, shard, workerIdx int, body []byte) *remoteCursor {
	cctx, cancel := context.WithCancel(ctx)
	c := &remoteCursor{ctx: cctx, cancel: cancel, worker: worker, shard: shard, respCh: make(chan respOrErr, 1)}
	c.workerIdx = workerIdx
	// Each leg gets its own child span under the scan's gather span, and the
	// request carries the trace ID (Call) so the worker's logs and spans
	// share it.
	c.span = obs.SpanFromContext(ctx).Child("worker")
	c.span.Set("worker", worker)
	c.span.Set("shard", strconv.Itoa(shard))
	// The goroutine sends on its own captured copy of the channel: the
	// consumer side nils c.respCh when it is done with it, and the send
	// must not observe that write. The buffer of 1 lets the goroutine exit
	// without a reader; a response arriving after the consumer gave up is
	// closed by the transport when the canceled request context unwinds.
	ch := c.respCh
	go func() {
		resp, err := Call(cctx, client, http.MethodPost, worker+"/scan", body, "application/json", ScanContentType)
		ch <- respOrErr{resp: resp, err: err}
	}()
	return c
}

// connect waits for the response: Call has checked its status and its
// content type, so a worker answering in another wire format (an older
// aiqld in a mixed-version cluster) is refused by name.
func (c *remoteCursor) connect() error {
	select {
	case re := <-c.respCh:
		c.respCh = nil
		if re.err != nil {
			return re.err
		}
		c.body, c.bp, c.entities = re.resp.Body, framePool.Get().(*[]byte), make(map[types.EntityID]*types.Entity)
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

func (c *remoteCursor) Next(batch []storage.Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	if c.body == nil {
		if err := c.connect(); err != nil {
			c.fail(err)
			return 0
		}
	}
	n, err := c.read(batch)
	if err != nil {
		c.fail(err)
		return 0
	}
	if n == 0 {
		// The trailer checked out. Reading on to EOF (bounded) hands the
		// connection back to the transport's pool; closing first drops it.
		_, _ = io.Copy(io.Discard, io.LimitReader(c.body, 4<<10))
		c.finish(nil)
	}
	return n
}

func (c *remoteCursor) Err() error { return c.err }

func (c *remoteCursor) Close() { c.finish(nil) }

// fail records an error, preferring the context's own error when the
// cursor was canceled — a body read that died because the caller hung up
// is a cancellation, not a worker failure.
func (c *remoteCursor) fail(err error) {
	if cerr := c.ctx.Err(); cerr != nil {
		c.finish(cerr)
		return
	}
	c.finish(&WorkerError{Worker: c.worker, Shard: c.shard, Err: err})
}

func (c *remoteCursor) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	if err != nil && c.err == nil {
		c.err = err
	}
	c.span.Add("rows", int64(c.rows))
	if c.err != nil {
		c.span.Set("error", c.err.Error())
	}
	c.span.End()
	// Canceling aborts a request still in flight; a response that arrived
	// unread goes with its canceled context (see newRemoteCursor).
	c.cancel()
	if c.body != nil {
		c.body.Close()
		framePool.Put(c.bp)
		c.bp = nil
	}
}

// scanReader decodes one ScanContentType stream into matches. It checks for
// one header first, naming the contacted worker; known entity types and
// operations; rows over entities sent earlier; and a trailer that counts
// exactly the rows carried.
type scanReader struct {
	workerIdx int
	body      io.ReadCloser // nil until connected
	bp        *[]byte       // pooled payload buffer
	entities  map[types.EntityID]*types.Entity
	pending   []types.Event // rows decoded but not yet handed out
	rows      int           // rows handed out
	sawHdr    bool
	ended     bool
}

// read fills batch from the current batch frame, reading frames only while
// it holds no rows. It returns 0 and a nil error once a valid trailer is in.
func (s *scanReader) read(batch []storage.Match) (int, error) {
	for len(s.pending) == 0 && !s.ended {
		if err := s.frame(); err != nil {
			return 0, err
		}
	}
	n := min(len(batch), len(s.pending))
	for i := range n {
		ev := &s.pending[i]
		batch[i] = storage.Match{Event: ev, Subj: s.entities[ev.Subject], Obj: s.entities[ev.Object]}
	}
	s.pending = s.pending[n:]
	s.rows += n
	return n, nil
}

// frame reads one frame and applies it.
func (s *scanReader) frame() error {
	kind, p, err := readFrame(s.body, s.bp)
	if err != nil {
		return fmt.Errorf("stream truncated after %d rows: %w", s.rows, err)
	}
	switch {
	case !s.sawHdr && kind != frameHeader:
		return fmt.Errorf("stream opened with frame kind %d, want a header", kind)
	case kind == frameHeader:
		if s.sawHdr || len(p) != 16 {
			return fmt.Errorf("duplicate or malformed header frame (%d bytes)", len(p))
		}
		// A labelled worker (-shard; -1 is unlabelled) must be the one
		// contacted: otherwise -workers is out of placement order and every
		// pruned query would be silently wrong. A replica answers for a
		// shard it is not, so the check is on the worker index.
		if shard := int(int64(binary.LittleEndian.Uint64(p))); shard >= 0 && shard != s.workerIdx {
			return fmt.Errorf("worker identifies as shard %d, coordinator routed shard %d here (is -workers in placement order?)", shard, s.workerIdx)
		}
		s.sawHdr = true
	case kind == frameBatch:
		ents, evs, err := storage.DecodeBatch(p)
		if err != nil {
			return err
		}
		for i := range ents {
			if t := ents[i].Type; t == types.EntityInvalid || t > types.EntityNetwork {
				return fmt.Errorf("cluster: unknown entity type %d", t)
			}
			s.entities[ents[i].ID] = &ents[i]
		}
		for i := range evs {
			ev := &evs[i]
			if ev.Op == types.OpInvalid || int(ev.Op) > types.NumOps {
				return fmt.Errorf("cluster: unknown operation %d", ev.Op)
			}
			if s.entities[ev.Subject] == nil || s.entities[ev.Object] == nil {
				return fmt.Errorf("row references entity not sent on this stream (subj=%d obj=%d)", ev.Subject, ev.Object)
			}
		}
		s.pending = evs
	case kind == frameEnd:
		if len(p) != 8 {
			return fmt.Errorf("malformed end frame (%d bytes)", len(p))
		}
		if got := binary.LittleEndian.Uint64(p); got != uint64(s.rows) {
			return fmt.Errorf("trailer says %d rows, stream carried %d", got, s.rows)
		}
		s.ended = true
	case kind == frameErr:
		return fmt.Errorf("worker scan failed: %s", p)
	default:
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	return nil
}
