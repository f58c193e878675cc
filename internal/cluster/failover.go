package cluster

import (
	"context"

	"aiql/internal/storage"
	"aiql/internal/types"
)

// failoverCursor is one leg of a scan: it gathers one logical shard,
// streaming from the shard's holders in order. Unreplicated that is the
// shard's own worker alone; replicated, if the primary's stream dies with a
// worker failure, the query is re-issued against the replica. Rows already
// emitted from the failed stream are remembered by event id and filtered
// out of the retry stream, so the consumer sees each matching row exactly
// once no matter where mid-stream the primary died. A cancellation is
// never failed over: the caller hung up.
type failoverCursor struct {
	ctx   context.Context
	coord *Coordinator
	shard int
	body  []byte

	// attempts lists worker indexes to try in order: primary, then
	// replica. It slices holders, so a leg allocates no list of its own.
	attempts []int
	holders  [2]int
	next     int // next attempt index to open
	cur      *remoteCursor

	// emitted records event ids already handed to the consumer; only
	// maintained while a further attempt remains (after the last attempt
	// starts there is nothing left to dedupe against).
	emitted map[types.EventID]struct{}

	err  error
	done bool
}

// newFailoverCursor builds the leg for one shard. The first worker request
// is issued immediately (like newRemoteCursor); the replica, when the
// cluster keeps one, is contacted only on failure. Each attempt's
// remoteCursor cancels its own request, so ctx is the scan's.
func newFailoverCursor(ctx context.Context, c *Coordinator, shard int, body []byte) *failoverCursor {
	f := &failoverCursor{ctx: ctx, coord: c, shard: shard, body: body}
	f.attempts = append(f.holders[:0], shard)
	if r := c.placement.Replica(shard, len(c.workers)); c.replicas > 1 && r >= 0 {
		f.attempts = append(f.attempts, r)
		f.emitted = make(map[types.EventID]struct{})
	}
	f.open()
	return f
}

// open starts the next attempt's stream.
func (f *failoverCursor) open() {
	w := f.attempts[f.next]
	f.next++
	f.cur = newRemoteCursor(f.ctx, f.coord.client, f.coord.workers[w], f.shard, w, f.body)
	if f.next > 1 {
		// A retry leg: the trace shows both the failed primary leg and this
		// replica leg, with the replica marked as the failover.
		f.cur.span.Set("failover", "true")
	}
}

func (f *failoverCursor) Next(batch []storage.Match) int {
	if f.done || len(batch) == 0 {
		return 0
	}
	for {
		n := f.cur.Next(batch)
		if n > 0 {
			if f.next < len(f.attempts) {
				// More attempts remain: remember what we hand out, so a
				// retry stream can skip it.
				for i := 0; i < n; i++ {
					f.emitted[batch[i].Event.ID] = struct{}{}
				}
			} else if f.next > 1 && len(f.emitted) > 0 {
				// Retry stream: drop rows the failed stream already
				// delivered. A batch can filter down to empty — loop for
				// more rather than return 0, which means exhausted.
				n = f.filter(batch, n)
				if n == 0 {
					continue
				}
			}
			return n
		}
		err := f.cur.Err()
		if err == nil {
			f.finish(nil)
			return 0
		}
		if _, isWorker := err.(*WorkerError); !isWorker || f.ctx.Err() != nil || f.next >= len(f.attempts) {
			f.finish(err)
			return 0
		}
		// The primary died mid-stream (or refused the connection); the
		// replica holds a full copy of this shard. Start over there.
		f.cur.Close()
		f.coord.failovers.Add(1)
		f.open()
	}
}

// filter compacts batch[:n] in place, dropping rows whose event id was
// already emitted by the failed stream.
func (f *failoverCursor) filter(batch []storage.Match, n int) int {
	kept := 0
	for i := 0; i < n; i++ {
		if _, dup := f.emitted[batch[i].Event.ID]; dup {
			continue
		}
		batch[kept] = batch[i]
		kept++
	}
	return kept
}

func (f *failoverCursor) Err() error { return f.err }

func (f *failoverCursor) Close() { f.finish(nil) }

func (f *failoverCursor) finish(err error) {
	if f.done {
		return
	}
	f.done = true
	if err != nil && f.err == nil {
		f.err = err
	}
	f.cur.Close()
	f.emitted = nil
}
