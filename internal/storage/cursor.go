package storage

import "context"

// Cursor streams the matches of one data query in bounded batches, so
// consumers decide how much of a result to materialize instead of always
// paying for all of it. A cursor is single-consumer: Next, Err and Close
// must be called from one goroutine.
//
// The contract:
//
//   - Next fills batch with up to len(batch) matches and returns how many
//     it wrote. A return of 0 means the cursor is finished — either
//     exhausted, canceled, or failed; Err distinguishes the cases.
//   - Err reports the first error (typically a context cancellation)
//     observed by the cursor. It is nil after a clean exhaustion or Close.
//   - Close releases the cursor's resources (producer goroutines, the
//     storage snapshot backing an auto-acquired scan). Close is idempotent
//     and safe to call before exhaustion; it is required when a consumer
//     abandons a cursor early, and harmless after Next returned 0.
type Cursor interface {
	Next(batch []Match) int
	Err() error
	Close()
}

// ScanBatchSize is the batch granularity producers and Drain use. Consumers
// passing Next a buffer of this size avoid partial-batch copies.
const ScanBatchSize = 256

// Drain exhausts a cursor into a materialized slice — the bridge from the
// cursor world back to callers that need the whole result. The caller keeps
// ownership of the cursor (and must still Close it; Drain leaves it
// exhausted, so Close is a no-op then).
func Drain(c Cursor) []Match {
	var out []Match
	batch := make([]Match, ScanBatchSize)
	for {
		n := c.Next(batch)
		if n == 0 {
			return out
		}
		out = append(out, batch[:n]...)
	}
}

// sliceCursor adapts an already-materialized result to the Cursor
// interface. Backends without a streaming storage layer (the graph-store
// baseline) and trivially-empty scans use it.
type sliceCursor struct {
	ms      []Match
	err     error
	onClose func()
}

// NewErrCursor returns an immediately-finished cursor reporting err — used
// when a scan cannot start (e.g. its context was already canceled).
func NewErrCursor(err error) Cursor { return &sliceCursor{err: err} }

func newSliceCursor(ms []Match, onClose func()) Cursor {
	return &sliceCursor{ms: ms, onClose: onClose}
}

func (c *sliceCursor) Next(batch []Match) int {
	if c.err != nil {
		return 0
	}
	n := copy(batch, c.ms)
	c.ms = c.ms[n:]
	if n == 0 {
		c.Close()
	}
	return n
}

func (c *sliceCursor) Err() error { return c.err }

func (c *sliceCursor) Close() {
	c.ms = nil
	if c.onClose != nil {
		c.onClose()
		c.onClose = nil
	}
}

// NewAsyncCursor runs produce on a background goroutine and serves its
// materialized result once ready, so Scan returns immediately and sibling
// cursors — MPP segment gathers — compute in parallel even when each source
// materializes. Backends without a streaming storage layer (the graph-store
// baseline) and single-partition snapshot scans use it. produce receives a
// context derived from ctx that is additionally canceled when the cursor is
// closed early; it must honour it (poll and return early). A canceled or
// closed cursor discards the result.
func NewAsyncCursor(ctx context.Context, produce func(context.Context) []Match) Cursor {
	return newAsyncErrCursor(ctx, func(cctx context.Context) ([]Match, error) {
		return produce(cctx), nil
	}, nil)
}

// newAsyncErrCursor is the error-aware form: a non-nil produce error
// surfaces through Err after Next returns 0, so a failed scan (cold-segment
// corruption, say) cannot pass for an empty result.
func newAsyncErrCursor(ctx context.Context, produce func(context.Context) ([]Match, error), onClose func()) Cursor {
	cctx, cancel := context.WithCancel(ctx)
	c := &asyncCursor{ctx: ctx, cancel: cancel, ch: make(chan asyncResult, 1), onClose: onClose}
	go func() {
		ms, err := produce(cctx)
		c.ch <- asyncResult{ms: ms, err: err}
	}()
	return c
}

type asyncResult struct {
	ms  []Match
	err error
}

type asyncCursor struct {
	ctx     context.Context
	cancel  context.CancelFunc
	ch      chan asyncResult
	ms      []Match
	ready   bool
	err     error
	done    bool
	onClose func()
}

func (c *asyncCursor) Next(batch []Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	if !c.ready {
		select {
		case res := <-c.ch:
			c.ready = true
			if res.err != nil {
				c.finish(res.err)
				return 0
			}
			c.ms = res.ms
			if err := c.ctx.Err(); err != nil {
				// produce aborted early; a partial result must not pass
				// for a complete one.
				c.finish(err)
				return 0
			}
		case <-c.ctx.Done():
			c.finish(c.ctx.Err())
			return 0
		}
	}
	n := copy(batch, c.ms)
	c.ms = c.ms[n:]
	if n == 0 {
		c.finish(nil)
	}
	return n
}

func (c *asyncCursor) Err() error { return c.err }

func (c *asyncCursor) Close() { c.finish(nil) }

// finish cancels and waits out the producer goroutine if it is still
// running (produce always sends exactly once and polls its context, so the
// wait is short), then releases resources — onClose must not run while
// produce still reads the underlying snapshot.
func (c *asyncCursor) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	if err != nil && c.err == nil {
		c.err = err
	}
	c.cancel()
	if !c.ready {
		<-c.ch
		c.ready = true
	}
	c.ms = nil
	if c.onClose != nil {
		c.onClose()
		c.onClose = nil
	}
}

// multiCursor concatenates sub-cursors in order, optionally capping the
// total number of matches handed out. The MPP cluster uses it to gather
// segment scans; because every sub-cursor's producers start when the
// sub-cursor is created, the sources still work in parallel — only the
// hand-off order is serialized.
type multiCursor struct {
	cs      []Cursor
	cur     int
	limit   int
	emitted int
	err     error
	done    bool
}

// NewMultiCursor chains cursors; limit > 0 caps the total matches emitted
// across all of them (each sub-cursor may already carry its own per-source
// limit; this enforces the global one).
func NewMultiCursor(limit int, cs ...Cursor) Cursor {
	return &multiCursor{cs: cs, limit: limit}
}

func (c *multiCursor) Next(batch []Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	want := len(batch)
	if c.limit > 0 && c.limit-c.emitted < want {
		want = c.limit - c.emitted
	}
	for want > 0 && c.cur < len(c.cs) {
		n := c.cs[c.cur].Next(batch[:want])
		if n > 0 {
			c.emitted += n
			return n
		}
		if err := c.cs[c.cur].Err(); err != nil {
			c.err = err
			c.finish()
			return 0
		}
		c.cur++
	}
	c.finish()
	return 0
}

func (c *multiCursor) Err() error { return c.err }

func (c *multiCursor) Close() { c.finish() }

func (c *multiCursor) finish() {
	if c.done {
		return
	}
	c.done = true
	for _, sub := range c.cs {
		sub.Close()
	}
}
