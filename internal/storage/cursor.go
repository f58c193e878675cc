package storage

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
// interface.
type sliceCursor struct {
	ms  []Match
	err error
}

// NewSliceCursor serves an already-materialized result — the graph-store
// baseline's traversal, which has no partitioned storage to stream from.
func NewSliceCursor(ms []Match) Cursor { return &sliceCursor{ms: ms} }

// NewErrCursor returns an immediately-finished cursor reporting err — used
// when a scan cannot start (e.g. its context was already canceled).
func NewErrCursor(err error) Cursor { return &sliceCursor{err: err} }

func (c *sliceCursor) Next(batch []Match) int {
	if c.err != nil {
		return 0
	}
	n := copy(batch, c.ms)
	c.ms = c.ms[n:]
	return n
}

func (c *sliceCursor) Err() error { return c.err }

func (c *sliceCursor) Close() { c.ms = nil }

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
