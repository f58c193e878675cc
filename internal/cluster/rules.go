package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"aiql/internal/engine"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/stream"
)

// Continuous queries across the cluster.
//
// A coordinator rule is registered on every worker, because every shard can
// hold matching events. Single-pattern rules fan out verbatim: each worker
// matches and projects locally, and the coordinator merges the emission
// streams. Multi-pattern rules cannot join worker-locally — one tuple's
// events may live on different shards — so the coordinator decomposes the
// rule into one *raw* sub-rule per event pattern (worker rule "<id>#p<i>",
// emitting unprojected matches) and runs the sliding-window join itself,
// inside each merged subscription, with the same stream.JoinState the
// single-node matcher uses. Worker failures surface as the same typed
// *PartialError /scan produces, never as a silently short stream.

// ErrUnknownRule mirrors stream.ErrUnknownRule for coordinator rules.
var ErrUnknownRule = stream.ErrUnknownRule

// coordRule is the coordinator's registry entry for one standing rule.
type coordRule struct {
	id       string
	spec     stream.RuleSpec
	plan     *engine.Plan
	windowMs int64
}

// workerRuleIDs lists the worker-side rule ids backing this rule: the id
// itself for single-pattern rules, one per pattern otherwise.
func (cr *coordRule) workerRuleIDs() []string {
	if len(cr.plan.Patterns) == 1 {
		return []string{cr.id}
	}
	ids := make([]string, len(cr.plan.Patterns))
	for i := range ids {
		ids[i] = fmt.Sprintf("%s#p%d", cr.id, i)
	}
	return ids
}

// workerSpecs builds the worker-side rule specs backing this rule: the
// spec verbatim for single-pattern rules, one raw per-pattern sub-rule
// otherwise. Registration fans these out; a subscription keeps them so it
// can re-register on a worker that restarted and lost its rules.
func (cr *coordRule) workerSpecs() []stream.RuleSpec {
	if len(cr.plan.Patterns) == 1 {
		ws := cr.spec
		ws.ID = cr.id
		return []stream.RuleSpec{ws}
	}
	specs := make([]stream.RuleSpec, 0, len(cr.plan.Patterns))
	for i := range cr.plan.Patterns {
		pi := i
		specs = append(specs, stream.RuleSpec{
			ID:       fmt.Sprintf("%s#p%d", cr.id, i),
			Query:    cr.spec.Query,
			WindowMs: cr.spec.WindowMs,
			Backfill: cr.spec.Backfill,
			Pattern:  &pi,
		})
	}
	return specs
}

// RegisterRule compiles the rule, registers it (or its per-pattern raw
// sub-rules) on every worker, and records it in the coordinator's registry.
// If any worker fails, the registrations that did land are rolled back
// best-effort and a *PartialError reports the failures.
func (c *Coordinator) RegisterRule(ctx context.Context, spec stream.RuleSpec) (*stream.RuleInfo, error) {
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
	if spec.Pattern != nil {
		return nil, errors.New("cluster: raw per-pattern rules are internal to coordinator fan-out")
	}
	// Resolve the join window now, with the same default the workers apply,
	// so the coordinator-side join and the worker buffers can never expire
	// on different horizons — and so listings report the real window.
	windowMs := spec.WindowMs
	if windowMs <= 0 {
		windowMs = stream.DefaultWindow.Milliseconds()
	}

	c.rulesMu.Lock()
	id := spec.ID
	if id == "" {
		for {
			c.ruleSeq++
			id = fmt.Sprintf("cr%d", c.ruleSeq)
			if _, taken := c.rules[id]; !taken {
				break
			}
		}
	} else if _, taken := c.rules[id]; taken {
		c.rulesMu.Unlock()
		return nil, fmt.Errorf("%w: %q", stream.ErrDuplicateRule, id)
	}
	if c.rules == nil {
		c.rules = make(map[string]*coordRule)
	}
	cr := &coordRule{id: id, spec: spec, plan: plan, windowMs: windowMs}
	c.rules[id] = cr
	c.rulesMu.Unlock()

	specs := cr.workerSpecs()

	type regTarget struct {
		shard int
		id    string
	}
	var mu sync.Mutex
	var landed []regTarget
	err = c.eachWorker(ctx, "rules", func(shard int) error {
		var errs []error
		for _, ws := range specs {
			if err := c.postRule(ctx, shard, &ws); err != nil {
				errs = append(errs, err)
				continue
			}
			mu.Lock()
			landed = append(landed, regTarget{shard: shard, id: ws.ID})
			mu.Unlock()
		}
		return errors.Join(errs...)
	})
	if err != nil {
		// Roll back exactly the registrations this call created, so no
		// worker keeps matching for a rule the coordinator refused —
		// and a pre-existing worker rule that caused a duplicate-id
		// conflict is left untouched. Best-effort.
		for _, t := range landed {
			_ = c.deleteWorkerRule(context.WithoutCancel(ctx), t.shard, t.id)
		}
		c.rulesMu.Lock()
		delete(c.rules, id)
		c.rulesMu.Unlock()
		return nil, err
	}
	info := &stream.RuleInfo{
		ID: id, Query: spec.Query, Columns: plan.Columns(),
		Patterns: len(plan.Patterns), WindowMs: windowMs,
	}
	return info, nil
}

// DeleteRule unregisters the rule from every worker and the registry. A
// worker answering 404 counts as deleted (it never had the rule or already
// dropped it); other failures produce a *PartialError, and the registry
// entry is removed regardless so a retry cannot wedge.
func (c *Coordinator) DeleteRule(ctx context.Context, id string) error {
	c.rulesMu.Lock()
	cr, ok := c.rules[id]
	if ok {
		delete(c.rules, id)
	}
	c.rulesMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, id)
	}
	return c.eachWorker(ctx, "rules", func(shard int) error {
		var errs []error
		for _, wid := range cr.workerRuleIDs() {
			errs = append(errs, c.deleteWorkerRule(ctx, shard, wid))
		}
		return errors.Join(errs...)
	})
}

// Rules lists the coordinator's registered rules, with matched/emitted
// counters aggregated across the workers' own listings.
func (c *Coordinator) Rules(ctx context.Context) ([]stream.RuleInfo, error) {
	c.rulesMu.Lock()
	crs := make([]*coordRule, 0, len(c.rules))
	for _, cr := range c.rules {
		crs = append(crs, cr)
	}
	c.rulesMu.Unlock()

	// One listing per worker, concurrently.
	workerInfos := make([]map[string]stream.RuleInfo, len(c.workers))
	err := c.eachWorker(ctx, "rules", func(shard int) (err error) {
		workerInfos[shard], err = c.listWorkerRules(ctx, shard)
		return err
	})
	if err != nil {
		return nil, err
	}

	out := make([]stream.RuleInfo, 0, len(crs))
	for _, cr := range crs {
		info := stream.RuleInfo{
			ID: cr.id, Query: cr.spec.Query, Columns: cr.plan.Columns(),
			Patterns: len(cr.plan.Patterns), WindowMs: cr.windowMs,
		}
		for _, infos := range workerInfos {
			for _, wid := range cr.workerRuleIDs() {
				// Seq stays zero: merged emission sequences are assigned
				// per subscription, and summing worker sequences would
				// conflate raw per-pattern matches (or per-worker
				// pre-dedup rows) with delivered emissions. Matched is the
				// honest aggregate: events that matched a pattern,
				// cluster-wide.
				if wi, ok := infos[wid]; ok {
					info.Matched += wi.Matched
					info.StateBuffered += wi.StateBuffered
					info.StateEvicted += wi.StateEvicted
					info.JoinOverflows += wi.JoinOverflows
					info.Dropped += wi.Dropped
					info.PendingDropped += wi.PendingDropped
				}
			}
		}
		out = append(out, info)
	}
	sortRuleInfos(out)
	return out, nil
}

func sortRuleInfos(infos []stream.RuleInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
}

// StreamingStats reports the coordinator's merge-layer streaming counters.
func (c *Coordinator) StreamingStats() stream.Stats {
	c.rulesMu.Lock()
	rules := len(c.rules)
	c.rulesMu.Unlock()
	return stream.Stats{
		Rules:   rules,
		Emitted: c.mergedEmissions.Load(),
	}
}

// postRule registers one worker-side rule.
func (c *Coordinator) postRule(ctx context.Context, shard int, spec *stream.RuleSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.workers[shard]+"/rules", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("register rule returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// deleteWorkerRule removes one worker-side rule; 404 is success.
func (c *Coordinator) deleteWorkerRule(ctx context.Context, shard int, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.workers[shard]+"/rules/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("delete rule returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// listWorkerRules fetches one worker's rule listing keyed by id.
func (c *Coordinator) listWorkerRules(ctx context.Context, shard int) (map[string]stream.RuleInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.workers[shard]+"/rules", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("list rules returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var doc struct {
		Rules []stream.RuleInfo `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := make(map[string]stream.RuleInfo, len(doc.Rules))
	for _, info := range doc.Rules {
		out[info.ID] = info
	}
	return out, nil
}

// RuleStream is a merged live subscription to one coordinator rule: worker
// emission streams fanned in (joined coordinator-side for multi-pattern
// rules) and re-stamped with a per-subscription sequence. The channel
// closes when the stream ends; Err distinguishes worker failure
// (*PartialError) from a deliberate close (Reason).
type RuleStream struct {
	ch     chan stream.Emission
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	seq    uint64
	js     *stream.JoinState
	plan   *engine.Plan
	ruleID string
	// seen dedupes distinct rules across workers (workers dedupe only
	// locally); FIFO-bounded so a long-lived subscription cannot grow
	// without limit.
	seen     *stream.Dedup
	closed   string
	failed   []*WorkerError
	err      error
	coord    *Coordinator
	nworkers int // workers contacted
}

// C is the merged emission channel.
func (rs *RuleStream) C() <-chan stream.Emission { return rs.ch }

// Err reports the terminal error (typically *PartialError) once C closed.
func (rs *RuleStream) Err() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err
}

// Reason reports a deliberate close's reason ("rule-deleted", ...) once C
// closed without error.
func (rs *RuleStream) Reason() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.closed
}

// Close cancels the worker subscriptions and waits for the fan-in to end.
func (rs *RuleStream) Close() {
	rs.cancel()
	rs.wg.Wait()
}

// SubscribeRule opens a merged stream over every worker's emissions for the
// rule. Multi-pattern rules join worker raw sub-streams coordinator-side;
// the subscription always replays from the workers' retained rings first
// (the worker-side ?since=0), then follows live traffic.
func (c *Coordinator) SubscribeRule(ctx context.Context, id string) (*RuleStream, *stream.RuleInfo, error) {
	c.rulesMu.Lock()
	cr, ok := c.rules[id]
	c.rulesMu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownRule, id)
	}
	cctx, cancel := context.WithCancel(ctx)
	rs := &RuleStream{
		ch:       make(chan stream.Emission, 256),
		cancel:   cancel,
		plan:     cr.plan,
		ruleID:   cr.id,
		coord:    c,
		nworkers: len(c.workers),
	}
	if len(cr.plan.Patterns) > 1 {
		rs.js = stream.NewJoinState(cr.plan, cr.windowMs,
			stream.DefaultMaxStatePerRule, stream.DefaultMaxPairsPerEvent)
	}
	if cr.plan.Return.Distinct {
		rs.seen = stream.NewDedup(stream.DefaultMaxStatePerRule)
	}
	for shard := range c.workers {
		for _, ws := range cr.workerSpecs() {
			rs.wg.Add(1)
			go rs.consumeWorker(cctx, c, shard, ws)
		}
	}
	go func() {
		rs.wg.Wait()
		rs.mu.Lock()
		if len(rs.failed) > 0 {
			c.failures.Add(uint64(len(rs.failed)))
			rs.err = &PartialError{Op: "subscribe", Workers: rs.nworkers, Contacted: rs.nworkers, Failed: rs.failed}
		}
		rs.mu.Unlock()
		close(rs.ch)
	}()
	info := &stream.RuleInfo{
		ID: cr.id, Query: cr.spec.Query, Columns: cr.plan.Columns(),
		Patterns: len(cr.plan.Patterns), WindowMs: cr.windowMs,
	}
	return rs, info, nil
}

// subLine is one decoded line of a worker subscription stream: an emission,
// or one of the control records (header, closed, error).
type subLine struct {
	stream.Emission
	Columns []string `json:"columns"`
	Closed  *string  `json:"closed"`
	Error   *string  `json:"error"`
}

// errSubNotFound marks a subscribe attempt the worker answered 404: the
// worker does not know the rule — typically because it restarted and lost
// its in-memory registrations — and must be re-registered before the
// subscription can resume.
var errSubNotFound = errors.New("worker does not know the rule")

// consumeWorker keeps one worker's subscription stream flowing into the
// merge until it ends. A mid-stream failure is retried up to the
// coordinator's SubscribeRetries budget, resuming with ?since=<last seq
// delivered> so the worker's retained ring replays exactly the gap —
// emissions are neither lost nor duplicated across the reconnect. A worker
// that answers 404 (it restarted and lost its rules) is re-registered and
// the stream restarts from its fresh ring; emissions the dead ring held
// that were never delivered are gone, which is the documented R=1 coverage
// gap of worker-local rule state. When the budget is exhausted the merged
// stream fails with the usual typed *PartialError.
func (rs *RuleStream) consumeWorker(ctx context.Context, c *Coordinator, shard int, ws stream.RuleSpec) {
	defer rs.wg.Done()
	var lastSeq uint64
	retries := 0
	for {
		err := rs.streamWorker(ctx, c, shard, ws.ID, &lastSeq)
		if err == nil || ctx.Err() != nil {
			return // clean end, deliberate close, or the consumer hung up
		}
		if retries < c.subRetries {
			retries++
			if errors.Is(err, errSubNotFound) {
				// Best-effort: if the re-registration fails too, the next
				// subscribe attempt reports the real error.
				_ = c.postRule(ctx, shard, &ws)
				lastSeq = 0 // the restarted worker's ring numbers from 1
			}
			select {
			case <-time.After(c.retryDelay):
				continue
			case <-ctx.Done():
				return
			}
		}
		// Terminal. Cancel before taking the merge lock: a sibling's
		// deliver may be blocked on the output channel while holding it,
		// and the cancellation is what unblocks it.
		rs.cancel()
		rs.mu.Lock()
		rs.failed = append(rs.failed, &WorkerError{Worker: c.workers[shard], Shard: shard, Err: err})
		rs.mu.Unlock()
		return
	}
}

// streamWorker dials one worker subscription and pumps it into the merge.
// It returns nil on a clean end (deliberate close or consumer
// cancellation) and the stream failure otherwise, recording the worker
// sequence of every delivered emission in *lastSeq so a retry can resume.
func (rs *RuleStream) streamWorker(ctx context.Context, c *Coordinator, shard int, wid string, lastSeq *uint64) error {
	target := c.workers[shard] + "/subscribe/" + url.PathEscape(wid)
	if *lastSeq > 0 {
		target += "?since=" + fmt.Sprint(*lastSeq)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if resp.StatusCode == http.StatusNotFound {
			return fmt.Errorf("%w: %s", errSubNotFound, bytes.TrimSpace(msg))
		}
		return fmt.Errorf("subscribe returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sawHeader := false
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line subLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("malformed stream line: %w", err)
		}
		switch {
		case !sawHeader:
			if line.Columns == nil && line.Rule == "" {
				return errors.New("stream did not open with a header")
			}
			sawHeader = true
		case line.Error != nil:
			return fmt.Errorf("worker stream error: %s", *line.Error)
		case line.Closed != nil:
			// slow-consumer means the coordinator itself fell behind: that
			// is a stream failure, not a clean end. rule-deleted ends the
			// whole merged stream deliberately.
			if *line.Closed == stream.DropSlowConsumer {
				return errors.New("worker dropped the coordinator as a slow consumer")
			}
			rs.mu.Lock()
			rs.closed = *line.Closed
			rs.mu.Unlock()
			rs.cancel()
			return nil
		default:
			if !rs.deliver(ctx, shard, line.Emission) {
				return nil // canceled mid-send
			}
			if line.Emission.Seq > *lastSeq {
				*lastSeq = line.Emission.Seq
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// EOF without a closed record: the worker died mid-stream.
	return fmt.Errorf("subscription truncated: %w", io.ErrUnexpectedEOF)
}

// deliver merges one worker emission: raw matches feed the coordinator-side
// join; projected rows pass through (deduplicated again for distinct rules,
// since workers dedupe only locally). The merge lock is held across both
// sequence assignment and the channel sends, so the merged stream's Seq is
// monotonically increasing on the wire, not just at assignment. Sends block
// — TCP backpressure is the flow control — but always yield to cancellation
// (fail cancels before taking the lock, so a blocked deliver cannot wedge a
// failing sibling).
func (rs *RuleStream) deliver(ctx context.Context, shard int, em stream.Emission) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []stream.Emission
	if em.Match != nil && rs.js != nil {
		backfill := em.Backfill
		rs.js.Offer(em.Pattern, em.Match.StorageMatch(), func(row []storage.Match) {
			projected := rs.plan.ProjectRow(row)
			if rs.seen != nil && !rs.seen.FirstSeen(strings.Join(projected, "\x1f")) {
				return
			}
			rs.seq++
			out = append(out, stream.Emission{
				Rule: rs.ruleID, Seq: rs.seq, Ts: stream.RowTs(row), Backfill: backfill, Row: projected,
			})
		})
	} else if em.Row != nil {
		if rs.seen != nil && !rs.seen.FirstSeen(strings.Join(em.Row, "\x1f")) {
			return true
		}
		rs.seq++
		ws := em.Seq
		sh := shard
		merged := em
		merged.Rule, merged.Seq, merged.Shard, merged.WorkerSeq = rs.ruleID, rs.seq, &sh, ws
		out = append(out, merged)
	}
	for _, m := range out {
		select {
		case rs.ch <- m:
			rs.coord.mergedEmissions.Add(1)
		case <-ctx.Done():
			return false
		}
	}
	return true
}
