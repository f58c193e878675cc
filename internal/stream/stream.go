// Package stream is the continuous-query subsystem: clients register
// standing AIQL queries ("rules"), ingested batches are routed through a
// matcher that evaluates every rule incrementally, and matches are
// delivered to subscribers as live emission streams with monotonically
// increasing per-rule sequence numbers.
//
// Where the engine answers retrospective investigations — compile, scan,
// join, project over data already at rest — the matcher runs the same
// compiled plans forward in time: single-pattern rules match each event
// against the pattern's compiled predicates as it arrives; multi-pattern
// rules keep bounded per-rule join state over a sliding event-time window
// (JoinState) and emit the moment a full pattern chain completes. Both
// paths reuse the engine's own predicate evaluation, join semantics
// (engine.Join.Eval) and projection (engine.Plan.ProjectRow), so for
// streamable plans a replayed dataset emits exactly the rows the batch
// engine returns — the property internal/golden pins corpus-wide.
//
// The matcher attaches to a store through storage.SetIngestObserver: it is
// invoked post-apply for every mutation batch, in generation order, inside
// the same batch boundary the WAL uses on durable stores — so durability
// and streaming agree on what was acknowledged. Rules registered with
// backfill replay a storage snapshot through the rule before going live,
// with the generation stamp splitting history from live traffic exactly
// once.
//
// Bounded state is a design constraint throughout: join buffers expire by
// window and are hard-capped per rule, distinct dedup sets are
// FIFO-bounded, each rule retains only a fixed ring of recent emissions for
// subscriber catch-up, and a subscriber that cannot keep up is disconnected
// (with a counted drop) rather than ever blocking ingest.
package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aiql/internal/engine"
	"aiql/internal/mpp"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// Registration and subscription failures callers branch on.
var (
	ErrUnknownRule   = errors.New("stream: unknown rule")
	ErrDuplicateRule = errors.New("stream: rule id already registered")
	ErrTooManyRules  = errors.New("stream: rule limit reached")
)

// Drop reasons surfaced by Subscription.Reason.
const (
	DropSlowConsumer = "slow-consumer"
	DropRuleDeleted  = "rule-deleted"
)

// DefaultWindow is the sliding join window applied to rules that don't set
// one. Exported so the cluster coordinator resolves the same default the
// workers will; likewise the state bounds below, which the coordinator's
// merged-stream joins reuse.
const DefaultWindow = 15 * time.Minute

// DefaultMaxStatePerRule is the default of Options.MaxStatePerRule.
// DefaultMaxPairsPerEvent caps the join enumeration work one offered match
// may trigger; overflow truncates that event's completions and is counted,
// never silent.
const (
	DefaultMaxStatePerRule  = 65536
	DefaultMaxPairsPerEvent = 1 << 20
)

// Options bound the matcher's state. The zero value gets defaults.
type Options struct {
	// MaxRules caps registered rules (default 64).
	MaxRules int
	// BufferSize is both the per-subscriber channel capacity and the
	// per-rule emission replay ring (default 256). A subscriber falling more
	// than a full buffer behind is dropped.
	BufferSize int
	// MaxStatePerRule caps each pattern's sliding-window join buffer and the
	// distinct dedup set (default 65536 entries).
	MaxStatePerRule int
}

func (o Options) withDefaults() Options {
	o.MaxRules = cmp.Or(o.MaxRules, 64)
	o.BufferSize = cmp.Or(o.BufferSize, 256)
	o.MaxStatePerRule = cmp.Or(o.MaxStatePerRule, DefaultMaxStatePerRule)
	return o
}

// RuleSpec describes one standing query to register.
type RuleSpec struct {
	// ID names the rule; empty auto-assigns r1, r2, ...
	ID string `json:"id,omitempty"`
	// Query is the AIQL source; it must compile to a streamable plan.
	Query string `json:"query"`
	// WindowMs is the sliding join window for multi-pattern rules: how far
	// apart (event time) one tuple's events may lie. 0 uses DefaultWindow.
	WindowMs int64 `json:"window_ms,omitempty"`
	// Backfill replays the store's current contents through the rule before
	// it goes live, so batch and stream answers agree from sequence 1.
	Backfill bool `json:"backfill,omitempty"`
	// Pattern, when set, restricts the rule to that single event pattern of
	// the query and switches emissions to raw matches — the building block
	// the cluster coordinator registers on workers to run the cross-shard
	// join itself.
	Pattern *int `json:"pattern,omitempty"`
	// Shard/NShards, when NShards > 0, restrict the rule, live and in
	// backfill, to the partitions whose home shard under the semantics-aware
	// placement over NShards workers is Shard. Like Pattern, they are set by
	// the cluster coordinator: a replicated worker also applies its
	// neighbour shard's copy, which the neighbour's rules match.
	Shard   int `json:"shard,omitempty"`
	NShards int `json:"nshards,omitempty"`
}

// RuleInfo is the externally visible state of a registered rule.
type RuleInfo struct {
	ID       string   `json:"id"`
	Query    string   `json:"query"`
	Columns  []string `json:"columns"`
	Patterns int      `json:"patterns"`
	WindowMs int64    `json:"window_ms"`
	Pattern  *int     `json:"pattern,omitempty"`
	// Seq is the last emission sequence number assigned (== emissions so
	// far).
	Seq         uint64 `json:"seq"`
	Matched     uint64 `json:"matched_events"`
	Subscribers int    `json:"subscribers"`
	// StateBuffered is the rule's current partial-match buffer depth;
	// StateEvicted counts entries dropped by window expiry or the state cap.
	StateBuffered int    `json:"state_buffered"`
	StateEvicted  uint64 `json:"state_evicted"`
	JoinOverflows uint64 `json:"join_overflows,omitempty"`
	// Dropped counts subscribers disconnected for falling behind.
	Dropped uint64 `json:"dropped_subscribers"`
	// PendingDropped counts live matches dropped because the backfill
	// hand-off queue hit the state cap (heavy ingest during a long
	// backfill); like every bounded-state loss, counted rather than silent.
	PendingDropped  uint64 `json:"pending_dropped,omitempty"`
	Backfilled      bool   `json:"backfilled,omitempty"`
	SinceGeneration uint64 `json:"since_generation"`
}

// Stats is a snapshot of the matcher-wide counters. StateEvicted and
// JoinOverflows are cumulative: deleted rules keep their share.
type Stats struct {
	Rules                int
	Emitted              uint64
	DroppedSlowConsumers uint64
	StateBuffered        int
	StateEvicted         uint64
	JoinOverflows        uint64
	Backfills            uint64
}

// patternRef is one (rule, pattern) the op-index routes events to, with
// the pattern's data query.
type patternRef struct {
	r       *rule
	pattern int
	q       *storage.DataQuery
}

// Matcher owns the registered rules of one store and evaluates them against
// every ingested batch. Attach it with
// store.SetIngestObserver(matcher.OnIngest); it resolves event endpoints
// through the store, so it must observe the same store it is given.
type Matcher struct {
	store *storage.Store
	opts  Options

	mu     sync.Mutex
	rules  map[string]*rule
	byOp   [][]patternRef // rebuilt copy-on-write on register/delete
	nextID uint64
	// deletedEvicted and deletedOverflows carry the join-state counters of
	// deleted rules, so the matcher-wide totals never go backwards.
	deletedEvicted   uint64 // aiql:guarded-by mu
	deletedOverflows uint64 // aiql:guarded-by mu

	emitted   atomic.Uint64
	dropped   atomic.Uint64
	backfills atomic.Uint64
}

// NewMatcher creates a matcher over the store.
func NewMatcher(store *storage.Store, opts Options) *Matcher {
	return &Matcher{store: store, opts: opts.withDefaults(), rules: make(map[string]*rule)}
}

// OnIngest is the storage.IngestObserver: it routes every event of the
// applied batch through the rules whose operation sets admit it. Entities
// resolve through the store (post-apply, so the batch's own entities are
// visible), once per event no matter how many rules inspect it. With no
// rules registered the cost is one pointer read per batch.
func (m *Matcher) OnIngest(d *types.Dataset, gen uint64) {
	m.mu.Lock()
	byOp := m.byOp
	m.mu.Unlock()
	if byOp == nil {
		return
	}
	for i := range d.Events {
		ev := &d.Events[i]
		refs := byOp[int(ev.Op)]
		if len(refs) == 0 {
			continue
		}
		var subj, obj *types.Entity
		resolved := false
		for _, ref := range refs {
			if !ref.q.AdmitsEvent(ev) {
				continue
			}
			if !resolved {
				subj, obj = m.store.EntityPair(ev.Subject, ev.Object)
				resolved = true
			}
			if !ref.q.AdmitsSubject(subj, nil) || !ref.q.AdmitsObject(obj, nil) {
				continue
			}
			ref.r.offer(ref.pattern, ev, subj, obj, gen)
		}
	}
}

// Register compiles and installs a standing rule. With Backfill it replays
// a snapshot of the store through the rule before returning; emissions from
// the replay carry the Backfill flag and land in the rule's replay ring for
// subscribers to catch up from.
func (m *Matcher) Register(spec RuleSpec) (*RuleInfo, error) {
	q, err := parser.Parse(spec.Query)
	if err != nil {
		return nil, err
	}
	plan, err := engine.Compile(q)
	if err != nil {
		return nil, err
	}
	if err := plan.Streamable(); err != nil {
		return nil, err
	}
	patternOnly := -1
	if spec.Pattern != nil {
		if *spec.Pattern < 0 || *spec.Pattern >= len(plan.Patterns) {
			return nil, fmt.Errorf("stream: pattern %d out of range (query has %d)", *spec.Pattern, len(plan.Patterns))
		}
		patternOnly = *spec.Pattern
	}
	windowMs := spec.WindowMs
	if windowMs <= 0 {
		windowMs = DefaultWindow.Milliseconds()
	}

	// A standing rule outlives whichever request registered it, so its
	// cancellation root is its own lifetime: Delete cancels the context,
	// aborting an in-flight backfill scan mid-partition.
	ctx, cancel := context.WithCancel(context.Background()) //aiql:ignore ctxflow -- rule lifetime root; canceled by Delete, no caller context outlives a standing rule

	r := &rule{
		m:           m,
		src:         spec.Query,
		ctx:         ctx,
		cancel:      cancel,
		plan:        plan,
		windowMs:    windowMs,
		patternOnly: patternOnly,
		ring:        ring{cap: m.opts.BufferSize},
		subs:        make(map[*Subscription]struct{}),
	}
	for _, pp := range plan.Patterns {
		q := pp.DataQuery()
		if spec.NShards > 0 {
			q.Partition = mpp.HomePartitions(spec.Shard, spec.NShards)
		}
		r.queries = append(r.queries, q)
	}
	if patternOnly < 0 {
		r.em = NewEmitter(plan, windowMs, m.opts.MaxStatePerRule, DefaultMaxPairsPerEvent)
	}
	// The pair-level shortcut of distinct rules is sound only when the
	// projection depends on the entities alone: a return item reading an
	// event attribute (evt.amount, evt.starttime, ...) can project distinct
	// rows from the same (subject, object) pair, which the shortcut would
	// wrongly suppress.
	if r.em != nil && plan.Return.Distinct && len(plan.Patterns) == 1 && !projectsEventAttrs(plan) {
		r.pairSeen = make(map[[2]uint64]struct{})
	}

	m.mu.Lock()
	if len(m.rules) >= m.opts.MaxRules {
		m.mu.Unlock()
		return nil, ErrTooManyRules
	}
	id := spec.ID
	if id == "" {
		for {
			m.nextID++
			id = fmt.Sprintf("r%d", m.nextID)
			if _, taken := m.rules[id]; !taken {
				break
			}
		}
	} else if _, taken := m.rules[id]; taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateRule, id)
	}
	r.id = id
	// The generation stamp splits history from live traffic: batches at or
	// below it are covered by the backfill snapshot (or deliberately skipped
	// without backfill); batches above it flow through offer. Acquiring the
	// snapshot here — before the rule is visible to OnIngest — cannot lose a
	// batch: a batch applied before the snapshot is in it and stamped ≤
	// sinceGen; one applied after will be offered with a higher generation.
	var snap *storage.Snapshot
	if spec.Backfill {
		snap = m.store.Snapshot()
		r.sinceGen = snap.Generation()
	} else {
		r.sinceGen = m.store.Generation()
		r.live = true
	}
	m.rules[id] = r
	m.rebuildIndexLocked()
	m.mu.Unlock()

	if snap != nil {
		m.backfills.Add(1)
		r.backfill(snap)
		snap.Close()
	}
	info := m.infoOf(r)
	return &info, nil
}

// Delete unregisters a rule, disconnecting its subscribers with reason
// rule-deleted. It reports whether the rule existed.
func (m *Matcher) Delete(id string) bool {
	m.mu.Lock()
	r, ok := m.rules[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	delete(m.rules, id)
	m.rebuildIndexLocked()
	// Retire the rule under both locks, so Stats sees its join-state
	// counters exactly once: in the live rule or in the matcher's totals.
	r.cancel()
	r.mu.Lock()
	r.deleted = true
	for s := range r.subs {
		r.dropSubLocked(s, DropRuleDeleted)
	}
	if r.em != nil {
		m.deletedEvicted += r.em.js.Evicted()
		m.deletedOverflows += r.em.js.Overflows()
	}
	r.em = nil
	r.pending = nil
	r.mu.Unlock()
	m.mu.Unlock()
	return true
}

// Rule returns one rule's info.
func (m *Matcher) Rule(id string) (RuleInfo, bool) {
	m.mu.Lock()
	r, ok := m.rules[id]
	m.mu.Unlock()
	if !ok {
		return RuleInfo{}, false
	}
	return m.infoOf(r), true
}

// Rules lists registered rules sorted by id.
func (m *Matcher) Rules() []RuleInfo {
	m.mu.Lock()
	rs := make([]*rule, 0, len(m.rules))
	for _, r := range m.rules {
		rs = append(rs, r)
	}
	m.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].id < rs[j].id })
	out := make([]RuleInfo, len(rs))
	for i, r := range rs {
		out[i] = m.infoOf(r)
	}
	return out
}

// Stats aggregates the matcher-wide counters. It holds the matcher lock
// throughout, so a concurrent Delete is either wholly before or wholly
// after it.
func (m *Matcher) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Rules:                len(m.rules),
		Emitted:              m.emitted.Load(),
		DroppedSlowConsumers: m.dropped.Load(),
		StateEvicted:         m.deletedEvicted,
		JoinOverflows:        m.deletedOverflows,
		Backfills:            m.backfills.Load(),
	}
	for _, r := range m.rules {
		r.mu.Lock()
		if r.em != nil {
			st.StateBuffered += r.em.js.Len()
			st.StateEvicted += r.em.js.Evicted()
			st.JoinOverflows += r.em.js.Overflows()
		}
		r.mu.Unlock()
	}
	return st
}

func (m *Matcher) infoOf(r *rule) RuleInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RuleInfo{
		ID:              r.id,
		Query:           r.src,
		Columns:         r.plan.Columns(),
		Patterns:        len(r.plan.Patterns),
		WindowMs:        r.windowMs,
		Seq:             r.seq,
		Matched:         r.matched,
		Subscribers:     len(r.subs),
		Dropped:         r.dropped,
		PendingDropped:  r.pendingDropped,
		Backfilled:      r.backfilled,
		SinceGeneration: r.sinceGen,
	}
	if r.patternOnly >= 0 {
		p := r.patternOnly
		info.Pattern = &p
	}
	if r.em != nil {
		info.StateBuffered = r.em.js.Len()
		info.StateEvicted = r.em.js.Evicted()
		info.JoinOverflows = r.em.js.Overflows()
	}
	return info
}

// projectsEventAttrs reports whether any return column reads an event
// attribute rather than an entity attribute.
func projectsEventAttrs(plan *engine.Plan) bool {
	for i := range plan.Return.Items {
		if ref := plan.Return.Items[i].Ref; ref != nil && ref.IsEvent {
			return true
		}
	}
	return false
}

// rebuildIndexLocked recomputes the op-indexed routing table: for each
// operation, the (rule, pattern) pairs whose operation set admits it. The
// table is replaced wholesale (copy-on-write) so OnIngest reads a
// consistent snapshot without holding the matcher lock per event. Callers
// hold m.mu.
func (m *Matcher) rebuildIndexLocked() {
	if len(m.rules) == 0 {
		m.byOp = nil
		return
	}
	ids := make([]string, 0, len(m.rules))
	for id := range m.rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	byOp := make([][]patternRef, types.NumOps+1)
	for _, id := range ids {
		r := m.rules[id]
		for pi := range r.plan.Patterns {
			if r.patternOnly >= 0 && pi != r.patternOnly {
				continue
			}
			for _, op := range r.plan.Patterns[pi].Ops.Ops() {
				byOp[int(op)] = append(byOp[int(op)], patternRef{r: r, pattern: pi, q: r.queries[pi]})
			}
		}
	}
	m.byOp = byOp
}
