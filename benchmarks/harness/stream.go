package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"aiql/benchmarks/workloads"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/types"
)

// streamSide is ingest_mixed's write side during the window: the
// open-loop writer on its own connection, the standing rules, and the one
// passive subscriber.
type streamSide struct {
	events   []types.Event // the streamed days in event-time order
	batches  []batch
	interval time.Duration
	t0       time.Time
	watch    string

	cancel     context.CancelFunc
	writerDone chan struct{}
	subDone    chan struct{}
	writeErr   error

	sent   int       // batches acknowledged
	ackMs  []float64 // ack time − due time
	lagMs  []float64 // actual send time − due time
	mu     sync.Mutex
	emitMs []float64 // line received − due time of the batch carrying ts
	rows   [][]string
	seqs   []uint64
	subErr error
}

// due is when batch i was scheduled to be sent at the fixed rate.
func (s *streamSide) due(i int) time.Time { return s.t0.Add(time.Duration(i) * s.interval) }

// startStream registers the standing rules, attaches the subscriber and
// starts the writer. The writer streams the days after the bulk load in
// event-time order at the workload's fixed event rate.
func (r *run) startStream(t0 time.Time, window time.Duration) (*streamSide, error) {
	st := r.def.Stream
	events := byTime(r.ds.days(r.def.Scale.Days, len(r.ds.ByDay)))
	s := &streamSide{
		events:   events,
		batches:  batches(nil, events, st.BatchEvents),
		interval: time.Duration(float64(time.Second) * float64(st.BatchEvents) / float64(st.EventsPerSec)),
		t0:       t0,
		watch:    st.Watch,
	}
	rules, err := standingRules(st)
	if err != nil {
		return nil, err
	}
	ctl := dial(r.front.url)
	defer ctl.close()
	for _, rule := range rules {
		if err := ctl.postJSON("/rules", rule); err != nil {
			return nil, r.env.fail(r.front, err)
		}
	}

	ctx, cancel := context.WithCancel(r.ctx)
	s.cancel = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.front.url+"/subscribe/"+watchRule, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, r.env.fail(r.front, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, r.env.fail(r.front, fmt.Errorf("/subscribe/%s: HTTP %d", watchRule, resp.StatusCode))
	}
	s.writerDone, s.subDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.subDone)
		defer resp.Body.Close()
		s.subscribe(bufio.NewScanner(resp.Body))
	}()
	go func() {
		defer close(s.writerDone)
		s.write(ctx, dial(r.front.url), window)
	}()
	return s, nil
}

// write is the open loop: batch i goes out at its due time whether or not
// the daemon kept up, and its acknowledgement is timed from that due time.
func (s *streamSide) write(ctx context.Context, c *conn, window time.Duration) {
	defer c.close()
	for i := range s.batches {
		due := s.due(i)
		if due.Sub(s.t0) >= window {
			return
		}
		if wait := due.Sub(now()); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		s.lagMs = append(s.lagMs, msSince(due))
		if err := c.ingest(&s.batches[i]); err != nil {
			s.writeErr = err
			return
		}
		s.ackMs = append(s.ackMs, msSince(due))
		s.sent++
	}
}

// subscribe reads the NDJSON emission stream until it is cancelled.
func (s *streamSide) subscribe(sc *bufio.Scanner) {
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		got := now()
		var em struct {
			Seq    uint64   `json:"seq"`
			Ts     int64    `json:"ts"`
			Row    []string `json:"row"`
			Closed string   `json:"closed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &em); err != nil {
			s.subErr = fmt.Errorf("subscriber: %w", err)
			return
		}
		if em.Closed != "" {
			s.subErr = fmt.Errorf("subscriber closed by the daemon: %s", em.Closed)
			return
		}
		if em.Seq == 0 {
			continue // the stream's header line
		}
		// The batch that carried the emission's newest event is the first
		// whose newest event is at or after ts (batches are in time order).
		i := sort.Search(len(s.batches), func(i int) bool { return s.batches[i].lastTs >= em.Ts })
		s.mu.Lock()
		s.emitMs = append(s.emitMs, ms(got.Sub(s.due(i))))
		s.rows = append(s.rows, em.Row)
		s.seqs = append(s.seqs, em.Seq)
		s.mu.Unlock()
	}
}

// finish waits for the writer, checks that the subscriber received exactly
// the rows the rule's text returns as a batch query over the streamed
// events, and reports the write side's client metrics.
func (s *streamSide) finish(r *run) error {
	defer s.cancel()
	<-s.writerDone // it stops by itself at the window's end
	if s.writeErr != nil {
		return r.env.fail(r.front, fmt.Errorf("open-loop writer: %w", s.writeErr))
	}
	sentEvents := 0
	for i := 0; i < s.sent; i++ {
		sentEvents += s.batches[i].events
	}
	r.loaded += sentEvents

	// The reference for the subscribed rule: its text as a batch query over
	// exactly the acknowledged streamed events.
	wantRows, err := newReference(types.NewDataset(r.ds.All.Entities, s.events[:sentEvents])).rows(r.ctx, s.watch)
	if err != nil {
		return err
	}
	want := queries.Canonical(wantRows)
	deadline := now().Add(2 * time.Second)
	for now().Before(deadline) {
		s.mu.Lock()
		n := len(s.rows)
		s.mu.Unlock()
		if n >= len(wantRows) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.cancel()
	<-s.subDone
	if s.subErr != nil {
		r.attempt(s.subErr)
	}
	for i, seq := range s.seqs {
		if seq != uint64(i+1) {
			r.attempt(fmt.Errorf("emission %d carries seq %d: a missed or duplicated emission", i+1, seq))
			break
		}
	}
	var emitErr error
	if got := queries.Canonical(s.rows); got != want {
		emitErr = fmt.Errorf("subscriber received %d emissions, the batch answer over the streamed events has %d rows (or the rows differ)", len(s.rows), len(wantRows))
	}
	r.attempt(emitErr)
	for range s.ackMs {
		r.attempt(nil) // each acknowledged batch is a checked operation
	}

	r.m.dist("ingest_ack", s.ackMs)
	r.m.dist("emit", s.emitMs)
	r.m.set("client.gen_lag_p95_ms", "ms", percentile(s.lagMs, 0.95), len(s.lagMs))
	r.logf("stream: %d batches acknowledged (%d events), ack p50 %.2f ms p95 %.2f ms, %d emissions, emit p50 %.2f ms, generator lag p95 %.3f ms",
		s.sent, sentEvents, median(s.ackMs), percentile(s.ackMs, 0.95), len(s.rows), median(s.emitMs), percentile(s.lagMs, 0.95))
	return nil
}

// afterDurable runs after a durable workload's window. ingest_mixed first
// crashes the daemon and checks that every acknowledged event is
// queryable after recovery. The traced pass then folds the whole store
// into segments and reports bytes on disk per event.
func (r *run) afterDurable(s *streamSide) error {
	d := r.front
	serving := d.args
	if s != nil {
		// Acknowledged ≥ 2 × -wal-flush before the kill: every batch the
		// writer saw acknowledged must survive.
		time.Sleep(2 * time.Duration(r.def.Stream.WalFlushMs) * time.Millisecond)
		if _, err := d.restart(serving...); err != nil {
			return err
		}
		p, err := d.scrape()
		if err != nil {
			return err
		}
		var lost error
		if got := int(p["aiql_store_events_count"]); got != r.loaded {
			lost = fmt.Errorf("after SIGKILL and recovery the store holds %d events, %d were acknowledged", got, r.loaded)
		}
		r.attempt(lost)
		// And they are queryable: the watch rule's text, as a batch query
		// over the streamed days, returns what the subscriber was sent.
		c := dial(d.url)
		defer c.close()
		text := fmt.Sprintf("(from \"%s\" to \"%s\")\n%s", gen.DateStr(r.def.Scale.Days), gen.DateStr(len(r.ds.ByDay)-1), s.watch)
		_, _, err = r.check(c, &request{text: text, want: queries.Canonical(s.rows)}, false)
		r.attempt(err)
	}
	if !r.cfg.Trace {
		return nil
	}
	if _, err := d.restart(append([]string{"-data-dir", r.dataDir}, foldNow...)...); err != nil {
		return err
	}
	if err := d.waitMetric("the final compaction", func(p prom) bool {
		return p["aiql_wal_records_count"] == 0 && int(p["aiql_segment_events_count"]) == r.loaded
	}); err != nil {
		return err
	}
	d.stop()
	bytes, err := dirBytes(r.dataDir)
	if err != nil {
		return err
	}
	r.m.set("disk_bytes_per_event", "B", float64(bytes)/float64(r.loaded), r.loaded)
	return nil
}

// rule is one POST /rules body.
type rule struct {
	ID    string `json:"id"`
	Query string `json:"query"`
}

// watchRule is the id of the one rule with a subscriber.
const watchRule = "watch"

// standingRules lists the rules a stream definition registers: its corpus
// queries with the (at "...") line removed — a standing rule looks forward,
// not at one past day — and the subscribed rule.
func standingRules(st *workloads.Stream) ([]rule, error) {
	byID := make(map[string]string)
	for _, q := range corpus() {
		byID[q.ID] = q.Src
	}
	rules := make([]rule, 0, len(st.CorpusRules)+1)
	for _, id := range st.CorpusRules {
		src, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("standing rules: no corpus query %q", id)
		}
		rules = append(rules, rule{id, strings.TrimSpace(atLine.ReplaceAllLiteralString(src, ""))})
	}
	return append(rules, rule{watchRule, st.Watch}), nil
}
