package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// testBase is an hour into the dataset epoch, safely inside one day.
const testBase = int64(1488412800000) // 2017-03-02T00:00:00Z

// newTapped builds an empty store with a matcher attached to its tap.
func newTapped(opts Options) (*storage.Store, *Matcher) {
	st := storage.New(storage.Options{})
	m := NewMatcher(st, opts)
	st.SetIngestObserver(m.OnIngest)
	return st, m
}

// procFile builds a two-entity batch: process id p (exe name exe) and file
// id f (name), both on agent.
func procFile(p, f types.EntityID, agent int, exe, name string) []types.Entity {
	return []types.Entity{
		{ID: p, Type: types.EntityProcess, AgentID: agent, Attrs: map[string]string{types.AttrExeName: exe, types.AttrPID: fmt.Sprint(p)}},
		{ID: f, Type: types.EntityFile, AgentID: agent, Attrs: map[string]string{types.AttrName: name}},
	}
}

func event(id types.EventID, agent int, subj, obj types.EntityID, op types.Op, at int64) types.Event {
	return types.Event{ID: id, AgentID: agent, Subject: subj, Object: obj, Op: op, Start: at, Seq: uint64(id)}
}

// next reads one emission, waiting at most d (d = 0 only takes one the
// ring already holds past the cursor).
func next(sub *Subscription, d time.Duration) (Emission, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return sub.Next(ctx)
}

func drain(t *testing.T, sub *Subscription, want int) []Emission {
	t.Helper()
	out := make([]Emission, 0, want)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for len(out) < want {
		em, err := sub.Next(ctx)
		switch {
		case errors.Is(err, ErrClosed):
			t.Fatalf("stream closed (%q) after %d of %d emissions", sub.Reason(), len(out), want)
		case err != nil:
			t.Fatalf("timed out after %d of %d emissions", len(out), want)
		}
		out = append(out, em)
	}
	// No extras expected: anything already emitted is a failure.
	if em, err := next(sub, 0); err == nil {
		t.Fatalf("unexpected extra emission seq=%d row=%v", em.Seq, em.Row)
	}
	return out
}

func TestSinglePatternRuleEmitsMatches(t *testing.T) {
	st, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{Query: `proc p read file f["/etc/shadow"] return p, f`})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Patterns != 1 {
		t.Fatalf("unexpected rule info %+v", info)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ents := procFile(1, 2, 1, "/usr/bin/cat", "/etc/shadow")
	ents = append(ents, procFile(3, 4, 1, "/usr/bin/vi", "/tmp/notes")...)
	st.Ingest(types.NewDataset(ents, []types.Event{
		event(1, 1, 1, 2, types.OpRead, testBase+1000),  // match
		event(2, 1, 3, 4, types.OpRead, testBase+2000),  // wrong file
		event(3, 1, 1, 2, types.OpWrite, testBase+3000), // wrong op
		event(4, 1, 3, 2, types.OpRead, testBase+4000),  // match (vi reads shadow)
	}))

	ems := drain(t, sub, 2)
	if ems[0].Seq != 1 || ems[1].Seq != 2 {
		t.Errorf("sequences %d,%d want 1,2", ems[0].Seq, ems[1].Seq)
	}
	if got := strings.Join(ems[0].Row, " "); got != "/usr/bin/cat /etc/shadow" {
		t.Errorf("row 1 = %q", got)
	}
	if got := strings.Join(ems[1].Row, " "); got != "/usr/bin/vi /etc/shadow" {
		t.Errorf("row 2 = %q", got)
	}
}

// TestMultiPatternJoinCompletes registers the classic chain rule — p writes
// f, then p2 reads f — and asserts the emission appears only once the chain
// completes, joining across separate ingest batches.
func TestMultiPatternJoinCompletes(t *testing.T) {
	st, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
		WindowMs: time.Hour.Milliseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ents := procFile(1, 10, 1, "/usr/bin/dropper", "/tmp/payload")
	ents = append(ents, procFile(2, 11, 1, "/usr/bin/loader", "/tmp/other")...)
	st.Ingest(types.NewDataset(ents, nil))

	// Write arrives first: no emission yet.
	st.Ingest(types.NewDataset(nil, []types.Event{event(1, 1, 1, 10, types.OpWrite, testBase+1000)}))
	if em, err := next(sub, 20*time.Millisecond); err == nil {
		t.Fatalf("premature emission %+v", em)
	}
	// A read of a different file: still nothing (id join fails).
	st.Ingest(types.NewDataset(nil, []types.Event{event(2, 1, 2, 11, types.OpRead, testBase+2000)}))
	// The completing read.
	st.Ingest(types.NewDataset(nil, []types.Event{event(3, 1, 2, 10, types.OpRead, testBase+3000)}))

	ems := drain(t, sub, 1)
	if got := strings.Join(ems[0].Row, " "); got != "/usr/bin/dropper /usr/bin/loader /tmp/payload" {
		t.Errorf("row = %q", got)
	}
	if ems[0].Ts != testBase+3000 {
		t.Errorf("ts = %d, want completing event's time", ems[0].Ts)
	}
	// A read arriving before the write (event time earlier, arrival later)
	// must still complete a tuple: arrival order is not a correctness
	// condition, the temporal join predicate is.
	st.Ingest(types.NewDataset(nil, []types.Event{event(4, 1, 2, 10, types.OpRead, testBase+500)}))
	if em, err := next(sub, 20*time.Millisecond); err == nil {
		t.Fatalf("read before write must not match 'before' join: %+v", em)
	}
}

// TestWindowExpiryBoundsJoinState asserts both expiry (old partial matches
// stop joining) and the eviction counter.
func TestWindowExpiryBoundsJoinState(t *testing.T) {
	st, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
		WindowMs: 1000, // one second
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ents := procFile(1, 10, 1, "/w", "/tmp/f")
	ents = append(ents, procFile(2, 11, 1, "/r", "/tmp/g")...)
	st.Ingest(types.NewDataset(ents, nil))
	st.Ingest(types.NewDataset(nil, []types.Event{event(1, 1, 1, 10, types.OpWrite, testBase)}))
	// Advance the watermark far past the window, then complete the chain:
	// the write has expired, so no emission may appear.
	for i := 0; i < 70; i++ { // enough inserts to trigger a sweep
		st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(100+i), 1, 1, 10, types.OpWrite, testBase+10_000+int64(i))}))
	}
	st.Ingest(types.NewDataset(nil, []types.Event{event(2, 1, 2, 10, types.OpRead, testBase+20_000)}))
	// The reads can only join writes within 1s of the watermark.
	if em, err := next(sub, 20*time.Millisecond); err == nil {
		t.Fatalf("expired write still joined: %+v", em)
	}
	ri, _ := m.Rule(info.ID)
	if ri.StateEvicted == 0 {
		t.Errorf("no evictions counted after window expiry (buffered %d)", ri.StateBuffered)
	}
}

func TestStateCapEvictsOldest(t *testing.T) {
	st, m := newTapped(Options{MaxStatePerRule: 8})
	info, err := m.Register(RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
		WindowMs: time.Hour.Milliseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ents := procFile(1, 10, 1, "/w", "/tmp/f")
	st.Ingest(types.NewDataset(ents, nil))
	for i := 0; i < 50; i++ {
		st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1+i), 1, 1, 10, types.OpWrite, testBase+int64(i))}))
	}
	ri, _ := m.Rule(info.ID)
	if ri.StateBuffered > 2*8 {
		t.Errorf("state %d exceeds cap", ri.StateBuffered)
	}
	if ri.StateEvicted == 0 {
		t.Error("cap evictions not counted")
	}
	// The matcher-wide total is a counter: deleting the rule keeps its share.
	before := m.Stats().StateEvicted
	m.Delete(info.ID)
	if after := m.Stats().StateEvicted; after != before {
		t.Errorf("matcher evictions %d -> %d across rule delete, want unchanged", before, after)
	}
}

// TestStatsMonotonicUnderConcurrentDelete reads the matcher-wide counters
// while rules are deleted one by one and ingest keeps the live ones
// evicting: StateEvicted must never read lower than it did before.
func TestStatsMonotonicUnderConcurrentDelete(t *testing.T) {
	st, m := newTapped(Options{MaxStatePerRule: 4})
	ids := make([]string, 8)
	for i := range ids {
		info, err := m.Register(RuleSpec{
			Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
			WindowMs: time.Hour.Milliseconds(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	st.Ingest(types.NewDataset(procFile(1, 10, 1, "/w", "/tmp/f"), nil))
	write := func(i int) {
		st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1+i), 1, 1, 10, types.OpWrite, testBase+int64(i))}))
	}
	for i := 0; i < 20; i++ {
		write(i)
	}

	stop := make(chan struct{})
	scraped := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 20; ; i++ {
			select {
			case <-stop:
				return
			default:
				write(i)
			}
		}
	}()
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			ev := m.Stats().StateEvicted
			if ev < last {
				t.Errorf("StateEvicted went backwards: %d -> %d", last, ev)
			}
			last = ev
			select {
			case scraped <- struct{}{}:
			default:
			}
		}
	}()
	for _, id := range ids {
		<-scraped // a read lands between every two deletes
		m.Delete(id)
	}
	<-scraped
	close(stop)
	wg.Wait()
	if ev := m.Stats().StateEvicted; ev < 8*16 {
		t.Errorf("StateEvicted = %d after deleting 8 rules that each evicted 16", ev)
	}
}

func TestDistinctDedupes(t *testing.T) {
	st, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{Query: `proc p read file f return distinct p`})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/tmp/f")
	st.Ingest(types.NewDataset(ents, []types.Event{
		event(1, 1, 1, 10, types.OpRead, testBase),
		event(2, 1, 1, 10, types.OpRead, testBase+1),
		event(3, 1, 1, 10, types.OpRead, testBase+2),
	}))
	ems := drain(t, sub, 1)
	if got := ems[0].Row[0]; got != "/usr/bin/cat" {
		t.Errorf("row = %q", got)
	}
}

// TestDistinctWithEventAttrsEmitsPerDistinctRow pins a parity subtlety:
// the (subject, object) pair-dedup shortcut must not apply when the
// projection reads event attributes — two events between the same pair can
// still project distinct rows, and the batch engine returns both.
func TestDistinctWithEventAttrsEmitsPerDistinctRow(t *testing.T) {
	st, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{Query: `proc p read file f as evt return distinct p, evt.amount`})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/tmp/f")
	ev1 := event(1, 1, 1, 10, types.OpRead, testBase)
	ev1.Amount = 111
	ev2 := event(2, 1, 1, 10, types.OpRead, testBase+1)
	ev2.Amount = 222
	ev3 := event(3, 1, 1, 10, types.OpRead, testBase+2)
	ev3.Amount = 111 // duplicate row: same p, same amount
	st.Ingest(types.NewDataset(ents, []types.Event{ev1, ev2, ev3}))
	ems := drain(t, sub, 2)
	if ems[0].Row[1] != "111" || ems[1].Row[1] != "222" {
		t.Errorf("rows %v %v, want amounts 111 and 222", ems[0].Row, ems[1].Row)
	}
}

// TestBackfillThenLive ingests history, registers with backfill, then keeps
// ingesting: the subscriber must see history (flagged) plus live events,
// each exactly once.
func TestBackfillThenLive(t *testing.T) {
	st, m := newTapped(Options{})
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/etc/shadow")
	st.Ingest(types.NewDataset(ents, []types.Event{
		event(1, 1, 1, 10, types.OpRead, testBase),
		event(2, 1, 1, 10, types.OpRead, testBase+1000),
	}))
	info, err := m.Register(RuleSpec{Query: `proc p read file f["/etc/shadow"] return p, f`, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st.Ingest(types.NewDataset(nil, []types.Event{event(3, 1, 1, 10, types.OpRead, testBase+2000)}))

	ems := drain(t, sub, 3)
	if !ems[0].Backfill || !ems[1].Backfill {
		t.Errorf("backfill emissions not flagged: %+v %+v", ems[0], ems[1])
	}
	if ems[2].Backfill {
		t.Errorf("live emission flagged as backfill: %+v", ems[2])
	}
	ri, _ := m.Rule(info.ID)
	if !ri.Backfilled || ri.Seq != 3 {
		t.Errorf("rule info after backfill: %+v", ri)
	}
}

// TestNoBackfillSkipsHistory is the inverse: without backfill the rule sees
// only batches ingested after registration.
func TestNoBackfillSkipsHistory(t *testing.T) {
	st, m := newTapped(Options{})
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/etc/shadow")
	st.Ingest(types.NewDataset(ents, []types.Event{event(1, 1, 1, 10, types.OpRead, testBase)}))
	info, err := m.Register(RuleSpec{Query: `proc p read file f["/etc/shadow"] return p, f`})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st.Ingest(types.NewDataset(nil, []types.Event{event(2, 1, 1, 10, types.OpRead, testBase+1000)}))
	ems := drain(t, sub, 1)
	if ems[0].Ts != testBase+1000 {
		t.Errorf("emission %+v should be the post-registration event", ems[0])
	}
}

// TestBackfillShortWindowMultiAgent pins backfill's replay order: storage
// yields a day's matches partition by partition, and the backfill runs one
// data query per pattern, so replaying results in scan order — or pattern
// after pattern — would race the watermark past agent 2's within-window
// chain and expire it. The rule's window (15 min) is far shorter than the
// day; both agents' chains must still emit, and an event matching both
// patterns must join on either side: the backfill emits exactly what a live
// rule fed the same events in time order emits, in the same order.
func TestBackfillShortWindowMultiAgent(t *testing.T) {
	var ents []types.Entity
	var evs []types.Event
	for agent := 1; agent <= 2; agent++ {
		base := types.EntityID(agent * 100)
		ents = append(ents, procFile(base, base+1, agent, "/w", "/tmp/f")...)
		ents = append(ents, procFile(base+2, base+3, agent, "/r", "/tmp/g")...)
		// A within-window chain at the start of the day...
		evs = append(evs,
			event(types.EventID(base), agent, base, base+1, types.OpWrite, testBase+1000),
			event(types.EventID(base+1), agent, base+2, base+1, types.OpRead, testBase+2000),
		)
		// ...plus filler late in agent 1's day, so partition-order replay
		// would advance the watermark hours past agent 2's chain.
		if agent == 1 {
			for i := 0; i < 70; i++ {
				evs = append(evs, event(types.EventID(5000+i), agent, base, base+1, types.OpWrite,
					testBase+10*3600_000+int64(i)))
			}
		}
	}
	// Agent 2's reader then writes the file — a match of both patterns —
	// and reads it again.
	evs = append(evs,
		event(203, 2, 202, 201, types.OpWrite, testBase+3000),
		event(204, 2, 202, 201, types.OpRead, testBase+4000),
	)
	spec := RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2["/r"] read || write file f as evt2
with evt1 before evt2
return p1, p2, f`,
		WindowMs: 15 * time.Minute.Milliseconds(),
	}
	// Agent 1: (write, read). Agent 2: (write, read), (write, both),
	// (write, read again) and (both, read again).
	const want = 5

	run := func(backfill bool) []Emission {
		st, m := newTapped(Options{})
		if backfill {
			st.Ingest(types.NewDataset(ents, evs))
		}
		spec.Backfill = backfill
		info, err := m.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		sub, _, err := m.Subscribe(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if !backfill {
			sorted := slices.Clone(evs)
			slices.SortFunc(sorted, func(a, b types.Event) int {
				return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Seq, b.Seq))
			})
			st.Ingest(types.NewDataset(ents, sorted))
		}
		return drain(t, sub, want)
	}
	live, replayed := run(false), run(true)
	for i, em := range replayed {
		if !em.Backfill || !slices.Equal(em.Row, live[i].Row) || em.Ts != live[i].Ts {
			t.Errorf("backfill emission %d = %+v, live = %+v", i, em, live[i])
		}
	}
}

// TestBackfillConcurrentIngestExactlyOnce races ingest against
// backfill-registration and asserts no event is matched twice or lost: the
// generation stamp must split history from live traffic exactly.
func TestBackfillConcurrentIngestExactlyOnce(t *testing.T) {
	for round := 0; round < 20; round++ {
		st, m := newTapped(Options{BufferSize: 4096})
		ents := procFile(1, 10, 1, "/usr/bin/cat", "/etc/shadow")
		st.Ingest(types.NewDataset(ents, nil))
		const history, live = 50, 50
		for i := 0; i < history; i++ {
			st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1+i), 1, 1, 10, types.OpRead, testBase+int64(i))}))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < live; i++ {
				st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1000+i), 1, 1, 10, types.OpRead, testBase+1000+int64(i))}))
			}
		}()
		info, err := m.Register(RuleSpec{Query: `proc p read file f["/etc/shadow"] return p, f`, Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		sub, _, err := m.Subscribe(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		ems := drain(t, sub, history+live)
		seenSeq := make(map[uint64]bool, len(ems))
		for _, em := range ems {
			if seenSeq[em.Seq] {
				t.Fatalf("duplicate seq %d", em.Seq)
			}
			seenSeq[em.Seq] = true
		}
		sub.Close()
	}
}

func TestSlowSubscriberDroppedNotBlocking(t *testing.T) {
	st, m := newTapped(Options{BufferSize: 4})
	info, err := m.Register(RuleSpec{Query: `proc p read file f return p, f`})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/tmp/f")
	st.Ingest(types.NewDataset(ents, nil))
	// Never read from sub: the ring (4) overwrites the subscriber's next
	// emission on the 5th and the subscriber must be dropped without Ingest
	// ever blocking.
	done := make(chan struct{})
	var subsAt [2]int // subscribers after the 4th and after the 5th emission
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1+i), 1, 1, 10, types.OpRead, testBase+int64(i))}))
			if i == 3 || i == 4 {
				ri, _ := m.Rule(info.ID)
				subsAt[i-3] = ri.Subscribers
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked on a slow subscriber")
	}
	if subsAt != [2]int{1, 0} {
		t.Errorf("subscribers after the 4th and 5th emissions = %v, want [1 0]", subsAt)
	}
	// A dropped subscriber reads nothing more: its next emission is gone.
	n := 0
	for err == nil {
		if _, err = next(sub, time.Second); err == nil {
			n++
		}
	}
	if n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("slow subscriber received %d emissions and then %v, want 0 and %v", n, err, ErrClosed)
	}
	if sub.Reason() != DropSlowConsumer {
		t.Errorf("drop reason = %q", sub.Reason())
	}
	st2 := m.Stats()
	if st2.DroppedSlowConsumers != 1 {
		t.Errorf("dropped counter = %d", st2.DroppedSlowConsumers)
	}
	if ri, _ := m.Rule(info.ID); ri.Seq != 20 || ri.Subscribers != 0 {
		t.Errorf("rule kept emitting after drop: %+v", ri)
	}
}

func TestSubscribeSinceReplaysRing(t *testing.T) {
	st, m := newTapped(Options{BufferSize: 64})
	info, err := m.Register(RuleSpec{Query: `proc p read file f return p, f`})
	if err != nil {
		t.Fatal(err)
	}
	ents := procFile(1, 10, 1, "/usr/bin/cat", "/tmp/f")
	st.Ingest(types.NewDataset(ents, nil))
	for i := 0; i < 10; i++ {
		st.Ingest(types.NewDataset(nil, []types.Event{event(types.EventID(1+i), 1, 1, 10, types.OpRead, testBase+int64(i))}))
	}
	sub, _, err := m.Subscribe(info.ID, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ems := drain(t, sub, 3)
	if ems[0].Seq != 8 || ems[2].Seq != 10 {
		t.Errorf("replay from 7 gave seqs %d..%d, want 8..10", ems[0].Seq, ems[2].Seq)
	}
}

// ruleWithEmissions registers a rule matching every read on a matcher
// whose rings hold buffer emissions and ingests n reads, each one emission;
// the returned reads(first, n) ingests n more with event ids from first.
func ruleWithEmissions(t *testing.T, buffer, n int) (*Matcher, string, func(first, n int)) {
	t.Helper()
	st, m := newTapped(Options{BufferSize: buffer})
	info, err := m.Register(RuleSpec{Query: `proc p read file f return p, f`})
	if err != nil {
		t.Fatal(err)
	}
	st.Ingest(types.NewDataset(procFile(1, 10, 1, "/usr/bin/cat", "/tmp/f"), nil))
	reads := func(first, n int) {
		evs := make([]types.Event, n)
		for i := range evs {
			evs[i] = event(types.EventID(first+i), 1, 1, 10, types.OpRead, testBase+int64(first+i))
		}
		st.Ingest(types.NewDataset(nil, evs))
	}
	reads(1, n)
	return m, info.ID, reads
}

// TestSubscribeFirstSeq pins where a subscription's cursor starts for each
// since, and the live slack a subscriber keeps once it has read its replay.
func TestSubscribeFirstSeq(t *testing.T) {
	const buffer, emitted = 8, 12 // the ring holds seqs 5..12
	for _, tc := range []struct {
		name      string
		since     uint64
		wantFirst uint64
		live      int // emissions after subscribing, ingested before any is read
	}{
		{"since inside the ring", 9, 10, 0},
		// The gap (since, FirstSeq) is visible: seqs 3 and 4 are gone.
		{"since older than the ring", 2, 5, 1},
		// Not since+1: the next live emission must still arrive.
		{"since at Seq", emitted, emitted + 1, 1},
		{"since past Seq", 100, emitted + 1, 1},
		{"replay read, full live slack", 0, 5, buffer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, id, reads := ruleWithEmissions(t, buffer, emitted)
			sub, _, err := m.Subscribe(id, tc.since)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if sub.FirstSeq() != tc.wantFirst {
				t.Fatalf("FirstSeq = %d, want %d", sub.FirstSeq(), tc.wantFirst)
			}
			ems := drain(t, sub, emitted+1-int(tc.wantFirst))
			reads(emitted+1, tc.live)
			if ri, _ := m.Rule(id); ri.Subscribers != 1 || ri.Dropped != 0 {
				t.Fatalf("subscriber dropped after %d live emissions: %+v", tc.live, ri)
			}
			ems = append(ems, drain(t, sub, tc.live)...)
			for i, em := range ems {
				if em.Seq != tc.wantFirst+uint64(i) {
					t.Fatalf("emission %d has seq %d, want %d", i, em.Seq, tc.wantFirst+uint64(i))
				}
			}
		})
	}
}

// TestNextAfterDeleteAndClose pins Next's one read rule on a ring that
// still holds unread emissions: a subscriber the rule's deletion
// disconnected reads them and then ends, one that called Close reads none.
func TestNextAfterDeleteAndClose(t *testing.T) {
	m, id, _ := ruleWithEmissions(t, 8, 3)
	deleted, _, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	closed, _, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if em, err := next(closed, 0); !errors.Is(err, ErrClosed) || closed.Reason() != "" {
		t.Errorf("Next after Close = seq %d, %v (reason %q), want %v", em.Seq, err, closed.Reason(), ErrClosed)
	}
	m.Delete(id)
	ems := drain(t, deleted, 3)
	if ems[2].Seq != 3 {
		t.Errorf("deleted rule's subscriber read up to seq %d, want 3", ems[2].Seq)
	}
	if _, err := next(deleted, time.Second); !errors.Is(err, ErrClosed) || deleted.Reason() != DropRuleDeleted {
		t.Errorf("Next past the ring after deletion = %v (reason %q), want %v and %q", err, deleted.Reason(), ErrClosed, DropRuleDeleted)
	}
}

// TestSubscribeAllocatesNoBuffer: an open subscription's memory follows
// what it reads, not the configured buffer — subscribing at BufferSize
// 1<<17 to a rule with 1 000 retained emissions allocates no copy of them.
func TestSubscribeAllocatesNoBuffer(t *testing.T) {
	m, id, _ := ruleWithEmissions(t, 1<<17, 1000)
	before := heapAlloc()
	sub, _, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown := heapAlloc() - before
	defer sub.Close()
	if grown >= 64<<10 {
		t.Errorf("Subscribe grew the heap by %d B, want under 64 KB", grown)
	}
}

// heapAlloc forces a collection and returns the live heap bytes.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestOptionsDefaultBufferSize(t *testing.T) {
	for in, want := range map[int]int{-1: 256, 0: 256, 1: 1, 4096: 4096} {
		if got := (Options{BufferSize: in}).withDefaults().BufferSize; got != want {
			t.Errorf("BufferSize %d defaults to %d, want %d", in, got, want)
		}
	}
}

func TestRuleLifecycleErrors(t *testing.T) {
	_, m := newTapped(Options{MaxRules: 2})
	if _, err := m.Register(RuleSpec{Query: `proc p read file f return count(f)`}); err == nil {
		t.Error("aggregate query registered as a rule")
	}
	if _, err := m.Register(RuleSpec{Query: `proc p read file f return p sort by p top 5`}); err == nil {
		t.Error("sort/top query registered as a rule")
	}
	if _, err := m.Register(RuleSpec{Query: `this is not aiql`}); err == nil {
		t.Error("unparseable query registered")
	}
	if _, err := m.Register(RuleSpec{ID: "a", Query: `proc p read file f return p`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(RuleSpec{ID: "a", Query: `proc p read file f return p`}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := m.Register(RuleSpec{ID: "b", Query: `proc p read file f return p`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(RuleSpec{ID: "c", Query: `proc p read file f return p`}); !errors.Is(err, ErrTooManyRules) {
		t.Errorf("rule limit not enforced: %v", err)
	}
	if !m.Delete("a") || m.Delete("a") {
		t.Error("delete semantics broken")
	}
	if _, _, err := m.Subscribe("a", 0); !errors.Is(err, ErrUnknownRule) {
		t.Errorf("subscribe to deleted rule: %v", err)
	}
	if got := len(m.Rules()); got != 1 {
		t.Errorf("rules listed after delete: %d", got)
	}
}

func TestDeleteDisconnectsSubscribers(t *testing.T) {
	_, m := newTapped(Options{})
	info, err := m.Register(RuleSpec{Query: `proc p read file f return p`})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(info.ID)
	if _, err := next(sub, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after rule deletion: %v, want %v", err, ErrClosed)
	}
	if sub.Reason() != DropRuleDeleted {
		t.Errorf("reason = %q", sub.Reason())
	}
}

// TestRawPatternRule exercises the cluster building block: a rule pinned to
// one pattern of a multi-pattern query emits raw matches for exactly that
// pattern.
func TestRawPatternRule(t *testing.T) {
	st, m := newTapped(Options{})
	p1 := 1
	info, err := m.Register(RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
		Pattern: &p1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Pattern == nil || *info.Pattern != 1 {
		t.Fatalf("info %+v", info)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ents := procFile(1, 10, 1, "/w", "/tmp/f")
	st.Ingest(types.NewDataset(ents, []types.Event{
		event(1, 1, 1, 10, types.OpWrite, testBase), // pattern 0 only
		event(2, 1, 1, 10, types.OpRead, testBase+1000),
	}))
	ems := drain(t, sub, 1)
	if ems[0].Match == nil || ems[0].Pattern != 1 || ems[0].Match.Event.Op != types.OpRead {
		t.Fatalf("raw emission %+v", ems[0])
	}
	if ems[0].Match.Subj.Attrs[types.AttrExeName] != "/w" {
		t.Errorf("raw subj %+v", ems[0].Match.Subj)
	}
}

// TestHomeShardRuleMatchesOnlyItsShard: a rule registered with
// Shard/NShards matches a live event only when the event's (agent, day)
// partition is homed on that shard — the predicate its backfill passes as
// q.Partition — so of a replicated worker's two copies only the home one
// fires it. A rule without a shard matches every event its store applies.
func TestHomeShardRuleMatchesOnlyItsShard(t *testing.T) {
	const nshards = 3
	day := timeutil.DayIndex(testBase)
	home := mpp.HomePartitions(0, nshards)
	in, out := -1, -1
	for a := 1; a < 64 && (in < 0 || out < 0); a++ {
		switch {
		case home(a, day) && in < 0:
			in = a
		case !home(a, day) && out < 0:
			out = a
		}
	}
	if in < 0 || out < 0 {
		t.Fatalf("no agents inside and outside shard 0 on day %d", day)
	}

	st, m := newTapped(Options{})
	const q = `proc p read file f["/etc/shadow"] return p, f`
	subscribe := func(spec RuleSpec) *Subscription {
		info, err := m.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		sub, _, err := m.Subscribe(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sub.Close)
		return sub
	}
	owned := subscribe(RuleSpec{Query: q, Shard: 0, NShards: nshards})
	all := subscribe(RuleSpec{Query: q})

	ents := procFile(1, 2, in, "/usr/bin/cat", "/etc/shadow")
	ents = append(ents, procFile(3, 4, out, "/usr/bin/vi", "/etc/shadow")...)
	st.Ingest(types.NewDataset(ents, []types.Event{
		event(1, in, 1, 2, types.OpRead, testBase+1000),  // home shard 0
		event(2, out, 3, 4, types.OpRead, testBase+2000), // another shard's
	}))

	if got := drain(t, owned, 1); strings.Join(got[0].Row, " ") != "/usr/bin/cat /etc/shadow" {
		t.Fatalf("shard-0 rule emitted %v, want the home-shard event's row only", got[0].Row)
	}
	if got := drain(t, all, 2); strings.Join(got[1].Row, " ") != "/usr/bin/vi /etc/shadow" {
		t.Fatalf("unsharded rule's second row %v, want the other shard's event", got[1].Row)
	}
}

// TestStreamAgainstGeneratedScenario is the in-package parity smoke: a
// selective rule over the generated scenario, fed batch-at-once through the
// tap, emits exactly the batch engine's rows.
func TestStreamAgainstGeneratedScenario(t *testing.T) {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 200, Seed: 7})
	st, m := newTapped(Options{BufferSize: 1 << 14})
	info, err := m.Register(RuleSpec{
		Query:    `proc p read file f["%id_rsa"] return p, f`,
		WindowMs: 365 * 24 * time.Hour.Milliseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st.Ingest(ds)

	want := st.Run(context.Background(), &storage.DataQuery{
		SubjType: types.EntityProcess, ObjType: types.EntityFile,
		ObjPred: pred.NewCond(types.AttrName, pred.CmpEq, "%id_rsa"),
		Ops:     types.NewOpSet(types.OpRead),
	})
	ems := drain(t, sub, len(want))
	for i, em := range ems {
		if em.Row[1] != want[i].Obj.Attrs[types.AttrName] {
			t.Fatalf("emission %d file %q, batch scan has %q", i, em.Row[1], want[i].Obj.Attrs[types.AttrName])
		}
	}
}
