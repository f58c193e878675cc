package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/parser"
	"aiql/internal/queries"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// streamWindowMs spans any test dataset: join-window expiry is exercised by
// the stream package's own tests, not the cluster parity ones.
const streamWindowMs = int64(1) << 41

// startStreamWorkers boots workers sized for corpus replay: rings large
// enough to retain every backfill emission and a rule budget covering
// per-pattern sub-rule fan-out.
func startStreamWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{
			MaxRules: 1024, StreamBuffer: 1 << 17,
		})
		s.SetShard(i)
		w := &worker{store: st}
		w.srv = httptest.NewServer(s.Handler())
		ws[i] = w
	}
	return ws
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.srv.Close()
	}
}

// collectEmissions reads exactly want emissions; assertQuiet then checks
// that no more follow.
func collectEmissions(t *testing.T, rs *cluster.RuleStream, want int) [][]string {
	t.Helper()
	rows := make([][]string, 0, want)
	deadline := time.After(30 * time.Second)
	for len(rows) < want {
		select {
		case em, ok := <-rs.C():
			if !ok {
				t.Fatalf("stream ended after %d of %d emissions: err=%v reason=%q", len(rows), want, rs.Err(), rs.Reason())
			}
			rows = append(rows, em.Row)
		case <-deadline:
			t.Fatalf("timed out after %d of %d emissions", len(rows), want)
		}
	}
	return rows
}

// assertQuiet waits 50 ms, then asserts that none of the streams, each read
// to its expected count, holds a further emission.
func assertQuiet(t *testing.T, streams ...*cluster.RuleStream) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	for _, rs := range streams {
		select {
		case em, ok := <-rs.C():
			if ok {
				t.Fatalf("extra emission beyond the batch result: %v", em.Row)
			}
		default:
		}
	}
}

// TestClusterStreamCorpusParity is the distributed half of the golden
// batch/stream parity criterion: every streamable corpus query, registered
// through the coordinator over 3 workers (raw per-pattern fan-out +
// coordinator-side join for multi-pattern rules), emits exactly the rows
// the batch engine returns over the undivided store — unreplicated, and at
// R=2, where every worker also stores its neighbour shard's copy and must
// match only its own. The replicas=N subtests register over the ingested
// dataset, so their rows come from backfill; the live/replicas=N subtests
// register first and then ingest the dataset in three batches, so every
// row comes from the workers' live ingest taps.
func TestClusterStreamCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping corpus replay over the cluster")
	}
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 300, Seed: 1})
	single := storage.New(storage.Options{})
	single.Ingest(ds)
	batch := engine.New(single, engine.Options{})
	third := len(ds.Events) / 3
	split := []*types.Dataset{
		types.NewDataset(ds.Entities, ds.Events[:third]),
		types.NewDataset(nil, ds.Events[third:2*third]),
		types.NewDataset(nil, ds.Events[2*third:]),
	}
	for _, live := range []bool{false, true} {
		for _, replicas := range []int{1, 2} {
			name := fmt.Sprintf("replicas=%d", replicas)
			if live {
				name = "live/" + name
			}
			t.Run(name, func(t *testing.T) {
				workers := startStreamWorkers(3)
				t.Cleanup(func() { closeWorkers(workers) })
				coord, err := cluster.New(workerURLs(workers), cluster.Options{Placement: mpp.SemanticsAware, Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				batches := []*types.Dataset{ds}
				if live {
					batches = split
				}
				checkClusterStreamParity(t, coord, batch, batches, live)
			})
		}
	}
}

// checkClusterStreamParity registers every streamable corpus query on the
// coordinator and compares each rule's merged stream with the batch
// engine's answer. The batches go in before registration, when the rules
// backfill, or after it, when live.
func checkClusterStreamParity(t *testing.T, coord *cluster.Coordinator, batch *engine.Engine, batches []*types.Dataset, live bool) {
	ingest := func() {
		for _, b := range batches {
			if err := coord.Ingest(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !live {
		ingest()
	}
	corpus := append(queries.CaseStudy(), queries.Behaviors()...)
	var rules []queries.Query
	for _, q := range corpus {
		plan := compileOrSkip(t, q.Src)
		if plan == nil || plan.Streamable() != nil {
			continue
		}
		if _, err := coord.RegisterRule(context.Background(), stream.RuleSpec{
			ID: "parity-" + q.ID, Query: q.Src, WindowMs: streamWindowMs, Backfill: !live,
		}); err != nil {
			t.Fatalf("%s: register: %v", q.ID, err)
		}
		rules = append(rules, q)
	}
	if len(rules) < 20 {
		t.Fatalf("only %d corpus queries were streamable; the parity sweep is not exercising the corpus", len(rules))
	}
	if live {
		ingest()
	}
	for _, q := range rules {
		want, err := batch.Query(q.Src)
		if err != nil {
			t.Fatalf("%s: batch execution failed: %v", q.ID, err)
		}
		// The subscription replays the workers' retained rings, which
		// hold every emission so far, backfilled or live.
		rs, _, err := coord.SubscribeRule(context.Background(), "parity-"+q.ID)
		if err != nil {
			t.Fatalf("%s: subscribe: %v", q.ID, err)
		}
		// A failed collection must still end the subscription before the
		// workers shut down: a server's Close waits for open streams.
		t.Cleanup(rs.Close)
		rows := collectEmissions(t, rs, len(want.Rows))
		assertQuiet(t, rs)
		rs.Close()
		if got, wantKey := queries.Canonical(rows), queries.Canonical(want.Rows); got != wantKey {
			t.Errorf("%s: stream emitted a different result set than the batch engine (%d rows each)",
				q.ID, len(rows))
		}
		if err := coord.DeleteRule(context.Background(), "parity-"+q.ID); err != nil {
			t.Fatalf("%s: delete: %v", q.ID, err)
		}
	}
	t.Logf("verified %d streamable corpus queries over a 3-worker cluster", len(rules))
}

func compileOrSkip(t *testing.T, src string) *engine.Plan {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("corpus query no longer parses: %v", err)
	}
	plan, err := engine.Compile(q)
	if err != nil {
		t.Fatalf("corpus query no longer compiles: %v", err)
	}
	return plan
}

// TestClusterStreamCrossShardJoin pins the coordinator-side join: a
// two-pattern rule whose constituent events land on different worker shards
// still completes, which no worker-local matcher could do.
func TestClusterStreamCrossShardJoin(t *testing.T) {
	workers := startStreamWorkers(3)
	defer closeWorkers(workers)
	coord, err := cluster.New(workerURLs(workers), cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}

	// Two days of the same agent whose (agent, day) homes differ.
	agent := 1
	day0 := gen.DayStart(0)
	day1 := gen.DayStart(1)
	s0 := mpp.SemanticsAware.Shard(agent, timeutil.DayIndex(day0), 3)
	s1 := mpp.SemanticsAware.Shard(agent, timeutil.DayIndex(day1), 3)
	for d := 2; s0 == s1 && d < 10; d++ {
		day1 = gen.DayStart(d)
		s1 = mpp.SemanticsAware.Shard(agent, timeutil.DayIndex(day1), 3)
	}
	if s0 == s1 {
		t.Fatal("could not find two days on distinct shards")
	}

	ents := []types.Entity{
		{ID: 1, Type: types.EntityProcess, AgentID: agent, Attrs: map[string]string{types.AttrExeName: "/usr/bin/dropper", types.AttrPID: "1"}},
		{ID: 2, Type: types.EntityProcess, AgentID: agent, Attrs: map[string]string{types.AttrExeName: "/usr/bin/loader", types.AttrPID: "2"}},
		{ID: 3, Type: types.EntityFile, AgentID: agent, Attrs: map[string]string{types.AttrName: "/tmp/payload"}},
	}
	evs := []types.Event{
		{ID: 1, AgentID: agent, Subject: 1, Object: 3, Op: types.OpWrite, Start: day0 + 1000, Seq: 1},
		{ID: 2, AgentID: agent, Subject: 2, Object: 3, Op: types.OpRead, Start: day1 + 1000, Seq: 2},
	}

	info, err := coord.RegisterRule(context.Background(), stream.RuleSpec{
		Query: `proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return p1, p2, f`,
		WindowMs: streamWindowMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Patterns != 2 {
		t.Fatalf("info %+v", info)
	}
	rs, _, err := coord.SubscribeRule(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := coord.Ingest(context.Background(), types.NewDataset(ents, evs)); err != nil {
		t.Fatal(err)
	}
	// The two events are on different shards by construction.
	if workers[s0].store.EventCount() == 0 || workers[s1].store.EventCount() == 0 {
		t.Fatalf("placement did not split the events (shards %d, %d)", s0, s1)
	}
	rows := collectEmissions(t, rs, 1)
	assertQuiet(t, rs)
	if got := rows[0][0] + " " + rows[0][1] + " " + rows[0][2]; got != "/usr/bin/dropper /usr/bin/loader /tmp/payload" {
		t.Errorf("joined row = %q", got)
	}
}

// TestClusterStreamWorkerFailure kills one worker mid-subscription: the
// merged stream must end with a typed *PartialError naming the shard, the
// same contract /scan failures carry.
func TestClusterStreamWorkerFailure(t *testing.T) {
	workers := startStreamWorkers(3)
	defer closeWorkers(workers)
	coord, err := cluster.New(workerURLs(workers), cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}
	info, err := coord.RegisterRule(context.Background(), stream.RuleSpec{
		Query: "proc p read file f return p, f", WindowMs: streamWindowMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := coord.SubscribeRule(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// SubscribeRule returns before the worker legs connect. Close the
	// listener first: a /subscribe accepted after CloseClientConnections
	// would hold an active handler that srv.Close waits on forever.
	workers[1].srv.Listener.Close()
	workers[1].srv.CloseClientConnections()
	workers[1].srv.Close()
	select {
	case _, ok := <-rs.C():
		if ok {
			t.Fatal("emission from a dead cluster")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merged stream did not end after worker death")
	}
	perr, ok := rs.Err().(*cluster.PartialError)
	if !ok {
		t.Fatalf("err = %v, want *PartialError", rs.Err())
	}
	found := false
	for _, we := range perr.Failed {
		if we.Shard == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("partial error does not name shard 1: %v", perr)
	}
}

// TestClusterRegisterRollback: if any worker refuses a rule, registration
// fails with a *PartialError and the workers that accepted roll back.
func TestClusterRegisterRollback(t *testing.T) {
	good := startStreamWorkers(2)
	defer closeWorkers(good)
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/rules" && r.Method == http.MethodPost {
			http.Error(w, `{"error":"full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer reject.Close()
	urls := append(workerURLs(good), reject.URL)
	coord, err := cluster.New(urls, cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.RegisterRule(context.Background(), stream.RuleSpec{
		Query: "proc p read file f return p", WindowMs: streamWindowMs,
	})
	perr, ok := err.(*cluster.PartialError)
	if !ok {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(perr.Failed) != 1 || perr.Failed[0].Shard != 2 {
		t.Errorf("failures %v", perr.Failed)
	}
	// The accepting workers must have rolled back.
	for i, w := range good {
		resp, err := http.Get(w.URL() + "/rules")
		if err != nil {
			t.Fatal(err)
		}
		var listing struct {
			Rules []stream.RuleInfo `json:"rules"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(listing.Rules) != 0 {
			ids := make([]string, 0, len(listing.Rules))
			for _, ri := range listing.Rules {
				ids = append(ids, ri.ID)
			}
			sort.Strings(ids)
			t.Errorf("worker %d still holds rules %v after rollback", i, ids)
		}
	}
	// And the coordinator must not list the rule either.
	infos, err := coord.Rules(context.Background())
	if err == nil && len(infos) != 0 {
		t.Errorf("coordinator lists %d rules after failed registration", len(infos))
	}
}

// TestClusterRegisterRefusesFanOutFields: pattern, shard and nshards are
// set by the coordinator's fan-out on worker rules, never by its clients.
func TestClusterRegisterRefusesFanOutFields(t *testing.T) {
	workers := startStreamWorkers(1)
	defer closeWorkers(workers)
	coord, err := cluster.New(workerURLs(workers), cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}
	p := 0
	for _, spec := range []stream.RuleSpec{{Pattern: &p}, {Shard: 1}, {NShards: 3}} {
		spec.Query = "proc p read file f return p"
		if _, err := coord.RegisterRule(context.Background(), spec); err == nil {
			t.Errorf("spec %+v was accepted", spec)
		}
	}
	if infos, err := coord.Rules(context.Background()); err != nil || len(infos) != 0 {
		t.Errorf("coordinator lists %v (err %v) after refused registrations", infos, err)
	}
}

// TestClusterStreamResumeAfterWorkerDrop cuts one worker's /subscribe
// stream mid-delivery on a replicated coordinator and asserts the
// subscription survives: the coordinator reconnects with ?since= and the
// merged stream still delivers every emission exactly once — no
// PartialError, no duplicates, no holes.
func TestClusterStreamResumeAfterWorkerDrop(t *testing.T) {
	var cutArmed atomic.Bool
	cutArmed.Store(true)
	ws := make([]*worker, 2)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{
			MaxRules: 1024, StreamBuffer: 1 << 17,
		})
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: st}
		idx := i
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if idx == 0 && strings.HasPrefix(r.URL.Path, "/subscribe/") && cutArmed.CompareAndSwap(true, false) {
				// First subscription on worker 0 dies after ~400 bytes —
				// past the header, inside the emission stream.
				rw = &truncatingWriter{ResponseWriter: rw, limit: 400}
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.srv.Close)
		ws[i] = w
	}

	coord, err := cluster.New(workerURLs(ws), cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	const src = "proc p read file f return p, f"
	info, err := coord.RegisterRule(context.Background(), stream.RuleSpec{
		Query: src, WindowMs: streamWindowMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := coord.SubscribeRule(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 50, Seed: 3})
	single := storage.New(storage.Options{})
	single.Ingest(ds)
	want, err := engine.New(single, engine.Options{}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) < 10 {
		t.Fatalf("only %d matching rows; the cut stream would prove nothing", len(want.Rows))
	}

	if err := coord.Ingest(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	rows := collectEmissions(t, rs, len(want.Rows))
	assertQuiet(t, rs)
	if cutArmed.Load() {
		t.Fatal("the subscription cut was never injected")
	}
	if got, wantKey := queries.Canonical(rows), queries.Canonical(want.Rows); got != wantKey {
		t.Errorf("resumed stream emitted a different result set than the batch engine (%d vs %d rows)",
			len(rows), len(want.Rows))
	}
}

// TestCatchUpFiresPrimaryRules: a primary that missed a batch fires its
// standing rules for it when it catches up, once. Three durable workers run
// at R=2; worker 1 answers 503 to every /ingest of the second batch (its
// shard-1 primary copy and its shard-0 replica copy) while its /subscribe
// stays up, so the batch lands degraded on the other copy-holders. Catch-up
// then pulls shard 1 from worker 2 and shard 0 from worker 0: worker 1's
// rule matches the shard-1 events it missed and ignores the shard-0 copy,
// which worker 0's rule already matched. The merged stream must equal the
// batch engine's answer over every acknowledged event, with no duplicates.
// The rule is not distinct, so a duplicate or a lost match changes the row
// multiset.
func TestCatchUpFiresPrimaryRules(t *testing.T) {
	var failing atomic.Bool
	ws := make([]*worker, 3)
	for i := range ws {
		p, err := storage.OpenPersistent(t.TempDir(), storage.PersistOptions{SyncEveryBatch: true, FlushInterval: -1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		s, err := server.NewPersistent(p, engine.New(p.Store, engine.Options{}), server.Options{StreamBuffer: 1 << 17})
		if err != nil {
			t.Fatal(err)
		}
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: p.Store}
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if i == 1 && r.URL.Path == "/ingest" && failing.Load() {
				http.Error(rw, "injected outage", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.srv.Close)
		ws[i] = w
	}
	coord, err := cluster.New(workerURLs(ws), cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}

	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 50, Seed: 3})
	half := len(ds.Events) / 2
	batches := []*types.Dataset{
		types.NewDataset(ds.Entities, ds.Events[:half]),
		types.NewDataset(ds.Entities, ds.Events[half:]),
	}
	const src = "proc p read file f return p, f"
	single := storage.New(storage.Options{})
	single.Ingest(ds)
	want, err := engine.New(single, engine.Options{}).Query(src)
	if err != nil {
		t.Fatal(err)
	}

	if err := coord.Ingest(context.Background(), batches[0]); err != nil {
		t.Fatal(err)
	}
	info, err := coord.RegisterRule(context.Background(), stream.RuleSpec{Query: src, WindowMs: streamWindowMs, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := coord.SubscribeRule(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)

	failing.Store(true)
	err = coord.Ingest(context.Background(), batches[1])
	failing.Store(false)
	if err != nil {
		t.Fatalf("degraded ingest was not acknowledged: %v", err)
	}
	if d := coord.Stats().DegradedIngests; d != 2 {
		t.Fatalf("degraded ingests = %d, want 2 (worker 1's primary and replica copies)", d)
	}

	for _, pull := range []struct{ from, shard int }{{2, 1}, {0, 0}} {
		body, _ := json.Marshal(map[string]any{"from": ws[pull.from].URL(), "shards": []int{pull.shard}})
		resp, err := http.Post(ws[1].URL()+"/catchup", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var cr server.CatchupResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || cr.Applied != 1 {
			t.Fatalf("catch-up of shard %d from worker %d: status %d applied %d err %v; want 200 and 1 batch",
				pull.shard, pull.from, resp.StatusCode, cr.Applied, err)
		}
	}

	rows := collectEmissions(t, rs, len(want.Rows))
	assertQuiet(t, rs)
	if got, wantKey := queries.Canonical(rows), queries.Canonical(want.Rows); got != wantKey {
		t.Errorf("merged stream after catch-up differs from the batch engine (%d rows each)", len(rows))
	}
}
