package stream

import (
	"strings"

	"aiql/internal/engine"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// JoinState is the bounded incremental join at the heart of a multi-pattern
// standing rule: per-pattern buffers of recent matches over a sliding
// event-time window, probed on every new match to complete full pattern
// chains. Each Emitter drives one: per rule in the matcher, and per merged
// subscription in the cluster coordinator, fed by raw per-pattern
// emissions from the workers — both get identical join semantics because
// the relationship predicate itself is the engine's (Join.Eval).
//
// Exactly-once emission without global state: every offered match receives
// a monotonically increasing stamp, and a completed tuple is emitted only
// at the offer of its maximum-stamp constituent (all other slots are filled
// from strictly earlier stamps). No tuple is emitted twice in any arrival
// order. Every complete tuple is emitted, the same tuple set the batch
// engine's join produces over the same events, only while none of its
// constituents has expired: an entry falls more than the window behind the
// watermark (below) and is swept, so a constituent arriving after a later
// event time has pushed the watermark past its partner — out-of-order
// event time, interleaved workers — misses that partner. A window that
// spans the events a rule sees makes every arrival order complete.
//
// Bounded state is a first-class constraint, enforced two ways:
//
//   - window expiry: entries whose event time falls more than the window
//     behind the newest event time seen (the watermark) are swept and never
//     join again;
//   - a hard per-pattern cap: when a buffer still exceeds MaxState after the
//     sweep, the oldest entries are dropped and counted (Evicted), trading
//     completeness for memory — never the reverse.
//
// JoinState is not safe for concurrent use; callers serialize Offer (the
// matcher under its per-rule lock, the coordinator under its merge lock).
type JoinState struct {
	plan     *engine.Plan
	k        int
	windowMs int64
	maxState int
	maxPairs int

	// bufs[p][heads[p]:] is pattern p's live sliding-window buffer: a
	// deque whose dead (expired/capped) prefix is skipped by the head
	// index and compacted away amortized-O(1) — window expiry never
	// recopies or reallocates per event.
	bufs      [][]jsEntry
	heads     []int
	joinsAt   [][]int // join indexes touching each pattern slot
	nextStamp uint64
	watermark int64

	// row/assigned are the enumeration scratch, reused across Offers (the
	// single-caller contract makes that safe) so the per-event hot path
	// does not allocate.
	row      []storage.Match
	assigned []bool

	evicted   uint64
	overflows uint64
}

// jsEntry parks one pattern match. The event is copied by value so buffered
// state never pins an ingest batch or a storage snapshot in memory; entity
// pointers are shared with the store, which retains them anyway.
type jsEntry struct {
	ev    types.Event
	subj  *types.Entity
	obj   *types.Entity
	stamp uint64
}

// NewJoinState builds the join state for a streamable plan. windowMs bounds
// how far apart (in event time) the constituents of one tuple may lie;
// maxState caps each pattern's buffer; maxPairs caps the enumeration work a
// single offered match may trigger.
func NewJoinState(plan *engine.Plan, windowMs int64, maxState, maxPairs int) *JoinState {
	k := len(plan.Patterns)
	js := &JoinState{
		plan:     plan,
		k:        k,
		windowMs: windowMs,
		maxState: maxState,
		maxPairs: maxPairs,
		bufs:     make([][]jsEntry, k),
		heads:    make([]int, k),
		joinsAt:  make([][]int, k),
		row:      make([]storage.Match, k),
		assigned: make([]bool, k),
	}
	for ji := range plan.Joins {
		j := &plan.Joins[ji]
		js.joinsAt[j.A] = append(js.joinsAt[j.A], ji)
		if j.B != j.A {
			js.joinsAt[j.B] = append(js.joinsAt[j.B], ji)
		}
	}
	return js
}

// Len returns the number of buffered partial matches across all patterns.
func (js *JoinState) Len() int {
	n := 0
	for p, b := range js.bufs {
		n += len(b) - js.heads[p]
	}
	return n
}

// Evicted returns how many buffered matches were dropped by window expiry
// or the state cap.
func (js *JoinState) Evicted() uint64 { return js.evicted }

// Overflows returns how many offers had their enumeration truncated by the
// per-offer pair budget (tuples may have been missed; the count makes the
// truncation visible instead of silent).
func (js *JoinState) Overflows() uint64 { return js.overflows }

// Offer feeds one match for one pattern slot and invokes emit for every
// tuple this match completes, row[i] holding pattern i's match. The row
// slice is reused; emit must not retain it (project or copy inside the
// callback). A match for an event matching several patterns is offered once
// per pattern, in any order.
func (js *JoinState) Offer(pattern int, m storage.Match, emit func(row []storage.Match)) {
	if m.Event.Start > js.watermark {
		js.watermark = m.Event.Start
	}
	// A straggler already outside the window relative to the watermark is
	// expired on arrival: buffered candidates older than the cutoff are
	// excluded from joins, and the same must hold for the new match itself —
	// otherwise the pair (old straggler, buffered recent) would emit in one
	// arrival order and not the other, and the tuple would span more than
	// the window.
	if js.k > 1 && m.Event.Start < js.watermark-js.windowMs {
		js.evicted++
		return
	}
	row, assigned := js.row, js.assigned
	for i := range assigned {
		assigned[i] = false
	}
	row[pattern] = m
	assigned[pattern] = true
	if !js.checkJoinsAt(pattern, row, assigned) {
		// A self-relationship on this slot already fails, so the match can
		// never participate in any tuple — don't buffer it.
		return
	}
	if js.k == 1 {
		emit(row)
		return
	}

	stamp := js.nextStamp
	js.insert(pattern, m)
	cutoff := js.watermark - js.windowMs
	pairs := 0

	// Two-pattern rules — the common chain shape — get a closure-free loop.
	if js.k == 2 {
		other := 1 - pattern
		buf := js.bufs[other]
		for i := js.heads[other]; i < len(buf); i++ {
			c := &buf[i]
			if c.stamp >= stamp || c.ev.Start < cutoff {
				continue
			}
			pairs++
			if pairs > js.maxPairs {
				js.overflows++
				return
			}
			row[other] = storage.Match{Event: &c.ev, Subj: c.subj, Obj: c.obj}
			assigned[other] = true
			if js.checkJoinsAt(other, row, assigned) {
				emit(row)
			}
			assigned[other] = false
		}
		return
	}

	var rec func(slot int) bool
	rec = func(slot int) bool {
		if slot == js.k {
			emit(row)
			return true
		}
		if slot == pattern {
			return rec(slot + 1)
		}
		buf := js.bufs[slot]
		for i := js.heads[slot]; i < len(buf); i++ {
			c := &buf[i]
			if c.stamp >= stamp || c.ev.Start < cutoff {
				continue
			}
			pairs++
			if pairs > js.maxPairs {
				js.overflows++
				return false
			}
			row[slot] = storage.Match{Event: &c.ev, Subj: c.subj, Obj: c.obj}
			assigned[slot] = true
			if js.checkJoinsAt(slot, row, assigned) && !rec(slot+1) {
				assigned[slot] = false
				return false
			}
			assigned[slot] = false
		}
		return true
	}
	rec(0)
}

// insert appends the match to its pattern buffer, expiring the window's
// dead prefix and enforcing the hard cap. Arrival order is roughly
// event-time order, so expiry almost always advances the head index — no
// copy, no allocation. Stragglers buried behind an out-of-order newer
// entry are excluded from joins by the enumeration's own cutoff check and
// fall off when they reach the head. Once the dead prefix rivals the live
// region the live entries are copied down in place, so each entry moves at
// most once more over its lifetime and the backing array stops growing at
// a small multiple of the live size.
func (js *JoinState) insert(pattern int, m storage.Match) {
	buf := append(js.bufs[pattern], jsEntry{ev: *m.Event, subj: m.Subj, obj: m.Obj, stamp: js.nextStamp})
	js.nextStamp++
	head := js.heads[pattern]
	cutoff := js.watermark - js.windowMs
	for head < len(buf) && buf[head].ev.Start < cutoff {
		head++
		js.evicted++
	}
	if over := len(buf) - head - js.maxState; over > 0 {
		head += over
		js.evicted += uint64(over)
	}
	if head >= 64 && head*2 >= len(buf) {
		n := copy(buf, buf[head:])
		buf = buf[:n]
		head = 0
	}
	js.bufs[pattern] = buf
	js.heads[pattern] = head
}

// checkJoinsAt evaluates every relationship touching slot whose other
// endpoint is already assigned (including self-relationships).
func (js *JoinState) checkJoinsAt(slot int, row []storage.Match, assigned []bool) bool {
	for _, ji := range js.joinsAt[slot] {
		j := &js.plan.Joins[ji]
		other := j.A
		if other == slot {
			other = j.B
		}
		if !assigned[other] {
			continue
		}
		if !j.Eval(&row[j.A], &row[j.B]) {
			return false
		}
	}
	return true
}

// Emitter is the one path from a pattern match to result rows, shared by
// the matcher's rules and the cluster coordinator's merged streams: the
// match joins through a JoinState, each completed tuple projects through
// the plan's return clause (Plan.ProjectRow), and a distinct rule drops the
// rows it already emitted. Not safe for concurrent use; callers serialize.
type Emitter struct {
	js   *JoinState
	seen *dedup // nil unless the plan returns distinct rows
}

// NewEmitter builds the emitter of a streamable plan. windowMs, maxState and
// maxPairs bound its join state as in NewJoinState; maxState also bounds
// the distinct set.
func NewEmitter(plan *engine.Plan, windowMs int64, maxState, maxPairs int) *Emitter {
	e := &Emitter{js: NewJoinState(plan, windowMs, maxState, maxPairs)}
	if plan.Return.Distinct {
		e.seen = newDedup(maxState)
	}
	return e
}

// Offer joins one match for one pattern slot and calls emit once per new
// result row, with ts the newest constituent event time — the Ts the row's
// emission carries.
func (e *Emitter) Offer(pattern int, m storage.Match, emit func(row []string, ts int64)) {
	e.js.Offer(pattern, m, func(tuple []storage.Match) {
		row := e.js.plan.ProjectRow(tuple)
		if !e.FirstSeen(row) {
			return
		}
		ts := tuple[0].Event.Start
		for _, c := range tuple[1:] {
			ts = max(ts, c.Event.Start)
		}
		emit(row, ts)
	})
}

// FirstSeen reports whether a result row is new: always for a plain rule,
// once while it stays in the bounded set for a distinct one. The row's
// columns joined by \x1f are the one definition of distinct-row identity.
func (e *Emitter) FirstSeen(row []string) bool {
	return e.seen == nil || e.seen.firstSeen(strings.Join(row, "\x1f"))
}

// dedup is a FIFO-bounded distinct set: firstSeen reports true exactly
// once per key while the key remains in the set. Evicting a key means its
// row could re-emit later — bounded state trades exactness at the margin,
// never memory.
type dedup struct {
	seen  map[string]struct{}
	queue []string
	limit int
}

func newDedup(limit int) *dedup {
	return &dedup{seen: make(map[string]struct{}), limit: limit}
}

// firstSeen reports whether key is new, recording it (and evicting the
// oldest key past the bound).
func (d *dedup) firstSeen(key string) bool {
	if _, dup := d.seen[key]; dup {
		return false
	}
	if len(d.queue) >= d.limit {
		oldest := d.queue[0]
		d.queue = d.queue[1:]
		delete(d.seen, oldest)
	}
	d.seen[key] = struct{}{}
	d.queue = append(d.queue, key)
	return true
}
