package stream

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"aiql/internal/engine"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Emission is one delivery on a rule's stream: a monotonically increasing
// per-rule sequence number plus either the projected result row (normal
// rules) or the raw match (per-pattern sub-rules, the cluster tier's
// distributed-join feed).
type Emission struct {
	Rule string `json:"rule"`
	// Seq increases by one per emission of the rule, starting at 1. A
	// subscriber that reconnects with ?since=<last seen seq> resumes without
	// duplicates as long as the rule's replay ring still holds the gap.
	Seq uint64 `json:"seq"`
	// Ts is the newest constituent event's start time (unix ms).
	Ts int64 `json:"ts"`
	// Backfill marks emissions produced by replaying the store's history
	// through a newly registered rule, before it went live.
	Backfill bool `json:"backfill,omitempty"`
	// Row is the projected result row (plan return columns), for normal
	// rules.
	Row []string `json:"row,omitempty"`
	// Pattern and Match carry raw per-pattern matches for sub-rules
	// registered with RuleSpec.Pattern.
	Pattern int       `json:"pattern,omitempty"`
	Match   *RawMatch `json:"match,omitempty"`
	// Shard and WorkerSeq are set by the cluster coordinator's merged
	// streams: the originating worker shard and that worker's own sequence
	// number, so per-shard order remains auditable after the fan-in
	// re-stamps Seq.
	Shard     *int   `json:"shard,omitempty"`
	WorkerSeq uint64 `json:"worker_seq,omitempty"`
}

// RawMatch is one unprojected pattern match on the wire: the event by value
// plus its resolved endpoint entities.
type RawMatch struct {
	Event types.Event   `json:"event"`
	Subj  *types.Entity `json:"subj"`
	Obj   *types.Entity `json:"obj"`
}

// StorageMatch reconstructs the storage-level match (Event pointing at the
// RawMatch's own copy).
func (rm *RawMatch) StorageMatch() storage.Match {
	return storage.Match{Event: &rm.Event, Subj: rm.Subj, Obj: rm.Obj}
}

// patternMatch is one match of one of the rule's patterns: a backfill
// match, or a live one queued while the rule backfills (its event copied
// out of the ingest batch).
type patternMatch struct {
	pattern int
	m       storage.Match
}

// rule is one registered standing query. Its mutex guards everything below
// it; the matcher takes it per offered event (brief) and the backfill takes
// it per scan batch, so ingest is never blocked for long.
type rule struct {
	m           *Matcher
	id          string
	src         string
	ctx         context.Context // rule lifetime; canceled by Matcher.Delete
	cancel      context.CancelFunc
	plan        *engine.Plan
	windowMs    int64
	patternOnly int // -1 = all patterns; >= 0 restricts to one, emitting RawMatch
	// queries holds each pattern's data query (PatternPlan.DataQuery), with
	// Partition set to the worker's home shard when the rule has one
	// (RuleSpec.Shard/NShards). It decides, live and in backfill, which
	// events the pattern matches. Read-only once the rule is registered.
	queries []*storage.DataQuery

	mu       sync.Mutex
	deleted  bool
	live     bool
	sinceGen uint64 // batches at or below this generation are not offered
	pending  []patternMatch

	em *Emitter // nil for raw rules
	// pairSeen short-circuits distinct single-pattern rules: a (subject,
	// object) pair projects to the same row every time, so repeats skip
	// projection and row dedup entirely. Reset on overflow — the row-level
	// dedup still guarantees correctness, this only buys speed.
	pairSeen       map[[2]uint64]struct{}
	seq            uint64
	matched        uint64
	dropped        uint64
	pendingDropped uint64
	backfilled     bool

	ring ring
	subs map[*Subscription]struct{}
}

// offer routes one fully-matched event (pattern-level predicates already
// checked by the matcher) into the rule: skipped if it predates the rule,
// queued while backfilling, joined and emitted when live.
func (r *rule) offer(pattern int, ev *types.Event, subj, obj *types.Entity, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted || gen <= r.sinceGen {
		return
	}
	if !r.live {
		// The backfill hand-off queue is bounded like every other piece of
		// per-rule state: heavy ingest during a long backfill drops the
		// overflow (counted), never grows without limit or blocks ingest.
		if len(r.pending) >= r.m.opts.MaxStatePerRule {
			r.pendingDropped++
			return
		}
		ev := *ev
		r.pending = append(r.pending, patternMatch{pattern: pattern, m: storage.Match{Event: &ev, Subj: subj, Obj: obj}})
		return
	}
	r.process(pattern, storage.Match{Event: ev, Subj: subj, Obj: obj}, false)
}

// process joins one matched event and emits completions. Callers hold r.mu.
func (r *rule) process(pattern int, m storage.Match, backfill bool) {
	r.matched++
	if r.pairSeen != nil {
		key := [2]uint64{uint64(m.Subj.ID), uint64(m.Obj.ID)}
		if _, dup := r.pairSeen[key]; dup {
			return
		}
		if len(r.pairSeen) >= pairSeenLimit {
			r.pairSeen = make(map[[2]uint64]struct{})
		}
		r.pairSeen[key] = struct{}{}
	}
	if r.patternOnly >= 0 {
		r.emit(Emission{
			Ts: m.Event.Start, Backfill: backfill, Pattern: pattern,
			Match: &RawMatch{Event: *m.Event, Subj: m.Subj, Obj: m.Obj},
		})
		return
	}
	r.em.Offer(pattern, m, func(row []string, ts int64) {
		r.emit(Emission{Ts: ts, Backfill: backfill, Row: row})
	})
}

// emit stamps, rings, and wakes the subscribers. One whose next emission
// the push overwrote is dropped on the spot — ingest never blocks on a slow
// consumer. Callers hold r.mu.
func (r *rule) emit(em Emission) {
	r.seq++
	em.Rule = r.id
	em.Seq = r.seq
	r.m.emitted.Add(1)
	r.ring.push(em)
	for s := range r.subs {
		if s.next+uint64(r.ring.cap) <= r.seq {
			r.dropSubLocked(s, DropSlowConsumer)
			r.dropped++
			r.m.dropped.Add(1)
		}
		s.signal()
	}
}

// backfill replays the snapshot through the rule, then drains the offers
// queued meanwhile and flips the rule live. Work happens under short lock
// acquisitions so concurrent ingest only ever waits one chunk.
//
// A pattern's history is exactly the answer to its data query (r.queries):
// the query the batch engine runs for it, and the one OnIngest admits live
// events through. History must replay in global event-time order: a scan
// yields partitions in (day, agent) order, which would race a multi-pattern
// rule's watermark to the end of one agent's day before another agent's
// same-day events arrive — silently expiring within-window joins. Replaying one day at a time,
// each pattern's query narrowed to that day and the results merged by
// (start, seq, pattern), restores the arrival order live ingestion has, so
// backfill and live replay emit the same tuples for any window. The cost is
// materializing one day's matching events at a time — the same order of
// magnitude the batch engine materializes per pattern.
func (r *rule) backfill(snap *storage.Snapshot) {
	for _, day := range r.m.store.Days() { // superset of the snapshot's days
		var ms []patternMatch
		for pi, pq := range r.queries {
			if r.patternOnly >= 0 && pi != r.patternOnly {
				continue
			}
			q := *pq
			q.Window = q.Window.Intersect(timeutil.DayWindow(day))
			if q.Window.Empty() {
				continue
			}
			for _, m := range snap.Run(r.ctx, &q) {
				ms = append(ms, patternMatch{pattern: pi, m: m})
			}
		}
		slices.SortFunc(ms, func(a, b patternMatch) int {
			return cmp.Or(cmp.Compare(a.m.Event.Start, b.m.Event.Start),
				cmp.Compare(a.m.Event.Seq, b.m.Event.Seq), a.pattern-b.pattern)
		})
		for lo := 0; lo < len(ms); lo += storage.ScanBatchSize {
			r.mu.Lock()
			if r.deleted {
				r.mu.Unlock()
				return
			}
			for _, pm := range ms[lo:min(lo+storage.ScanBatchSize, len(ms))] {
				r.process(pm.pattern, pm.m, true)
			}
			r.mu.Unlock()
		}
	}
	r.mu.Lock()
	for _, pm := range r.pending {
		r.process(pm.pattern, pm.m, false)
	}
	r.pending = nil
	r.live = true
	r.backfilled = true
	r.mu.Unlock()
}

// dropSubLocked detaches a subscriber with the given reason ("" for the
// consumer's own Close) and wakes it. Callers hold r.mu.
func (r *rule) dropSubLocked(s *Subscription, reason string) {
	if _, ok := r.subs[s]; ok {
		delete(r.subs, s)
		s.reason = reason
		s.signal()
	}
}

// pairSeenLimit bounds a distinct rule's pair shortcut; past it the set
// resets — correctness is unaffected (row dedup still holds), only the
// amortization.
const pairSeenLimit = 1 << 20

// ring is the rule's one emission buffer: the last cap emissions, read in
// place by every subscriber's cursor. Seqs are contiguous from 1, so seq s
// sits at buf[(s-1)%cap]. Storage grows lazily up to cap — a quiet rule with
// a large configured buffer costs nothing.
type ring struct {
	cap int
	buf []Emission
}

func (rg *ring) push(em Emission) {
	if len(rg.buf) < rg.cap {
		rg.buf = append(rg.buf, em)
		return
	}
	rg.buf[(em.Seq-1)%uint64(rg.cap)] = em
}

// at returns emission seq if the ring holds it (never seq 0).
func (rg *ring) at(seq uint64) (Emission, bool) {
	i := (seq - 1) % uint64(rg.cap)
	if i >= uint64(len(rg.buf)) || rg.buf[i].Seq != seq {
		return Emission{}, false
	}
	return rg.buf[i], true
}
