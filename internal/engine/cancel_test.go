package engine_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// blockingBackend's cursors produce nothing and block until their context
// is canceled — a stand-in for an arbitrarily slow storage layer.
type blockingBackend struct {
	scans atomic.Int32
}

func (b *blockingBackend) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	b.scans.Add(1)
	return &blockingCursor{ctx: ctx}
}

type blockingCursor struct {
	ctx context.Context
	err error
}

func (c *blockingCursor) Next(batch []storage.Match) int {
	<-c.ctx.Done()
	c.err = c.ctx.Err()
	return 0
}
func (c *blockingCursor) Err() error { return c.err }
func (c *blockingCursor) Close()     {}

// TestExecuteCancellation verifies engine.Execute aborts promptly when its
// context is canceled mid-scan, instead of waiting for the backend.
func TestExecuteCancellation(t *testing.T) {
	b := &blockingBackend{}
	e := engine.New(b, engine.Options{})
	pq, err := e.Prepare(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pq.Execute(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the execution reach the blocking scan
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not abort within 5s of cancellation")
	}
	if b.scans.Load() == 0 {
		t.Fatal("execution never reached the backend")
	}
}

// TestExecutePreCanceled: an already-canceled context never touches the
// backend.
func TestExecutePreCanceled(t *testing.T) {
	b := &blockingBackend{}
	e := engine.New(b, engine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `proc p read file f return p, f`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled QueryContext returned %v, want context.Canceled", err)
	}
	if b.scans.Load() != 0 {
		t.Fatalf("pre-canceled execution issued %d scans", b.scans.Load())
	}
}

// countingBackend wraps a store and records the number of scans opened and
// of matches actually pulled through their cursors, proving (or disproving)
// early termination.
type countingBackend struct {
	st     *storage.Store
	scans  atomic.Int32
	pulled atomic.Int64
}

func (b *countingBackend) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	b.scans.Add(1)
	return &countingCursor{inner: b.st.Scan(ctx, q), n: &b.pulled}
}

type countingCursor struct {
	inner storage.Cursor
	n     *atomic.Int64
}

func (c *countingCursor) Next(batch []storage.Match) int {
	n := c.inner.Next(batch)
	c.n.Add(int64(n))
	return n
}
func (c *countingCursor) Err() error { return c.inner.Err() }
func (c *countingCursor) Close()     { c.inner.Close() }

// TestPatternScansOncePerDataQuery: a pattern is one Backend.Scan whatever
// its window spans. The storage layer's producer pool already runs a scan's
// (day, agent) partitions in parallel, so the engine must not split a
// multi-day window into per-day scans of its own.
func TestPatternScansOncePerDataQuery(t *testing.T) {
	const host = 1
	b := gen.NewBuilder(7)
	bash := b.Proc(host, "/bin/bash")
	log := b.File(host, "/var/log/syslog")
	for d := 1; d <= 3; d++ {
		b.Emit(host, bash, log, types.OpWrite, gen.DayStart(d)+1000, 128)
	}
	st := storage.New(storage.Options{})
	st.Ingest(b.Dataset())

	cb := &countingBackend{st: st}
	e := engine.New(cb, engine.Options{})
	res, err := e.Query(`(from "` + gen.DateStr(1) + `" to "` + gen.DateStr(3) + `")
		agentid = 1
		proc p write file f["%syslog"] as evt return p, f, evt.starttime`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("3-day query returned %d rows, want 3", len(res.Rows))
	}
	if n := cb.scans.Load(); n != 1 {
		t.Fatalf("a single-pattern 3-day query issued %d scans, want 1", n)
	}
}

// TestTopKTerminatesScanEarly: a single-pattern top-k query must push its
// limit into the storage scan and stop pulling after k matches, instead of
// materializing everything and post-filtering.
func TestTopKTerminatesScanEarly(t *testing.T) {
	const host = 1
	day := gen.DayStart(1)
	b := gen.NewBuilder(3)
	bash := b.Proc(host, "/bin/bash")
	log := b.File(host, "/var/log/syslog")
	for k := 0; k < 5000; k++ {
		b.Emit(host, bash, log, types.OpWrite, day+int64(k)*10, 128)
	}
	st := storage.New(storage.Options{})
	st.Ingest(b.Dataset())

	cb := &countingBackend{st: st}
	e := engine.New(cb, engine.Options{})
	res, err := e.Query(`proc p write file f["%syslog"] as evt return p, f top 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("top 7 returned %d rows", len(res.Rows))
	}
	if pulled := cb.pulled.Load(); pulled > 7 {
		t.Fatalf("top-k pulled %d matches through the cursor, want ≤ 7", pulled)
	}
}

// TestUnboundedTemporalPushdown: a "before" relationship in a query with no
// time window pushes a half-unbounded window (To = 1<<62) into the second
// data query; no layer may try to enumerate its days. Regression test for
// a hang inherited from the materializing executor.
func TestUnboundedTemporalPushdown(t *testing.T) {
	const host = 1
	day := gen.DayStart(1)
	b := gen.NewBuilder(5)
	bash := b.Proc(host, "/bin/bash")
	curl := b.ProcInstance(host, "/usr/bin/curl")
	secret := b.File(host, "/home/alice/.ssh/id_rsa")
	b.Emit(host, bash, curl, types.OpStart, day+1000, 0)
	b.Emit(host, curl, secret, types.OpRead, day+2000, 4096)

	st := storage.New(storage.Options{})
	st.Ingest(b.Dataset())
	e := engine.New(st, engine.Options{})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.QueryContext(ctx, `
		proc p1["%bash"] start proc p2 as evt1
		proc p2 read file f["%id_rsa"] as evt2
		with evt1 before evt2
		return p1, p2, f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
}

// TestSnapshotExecuteOn runs a prepared query against an explicit snapshot
// while the store ingests concurrently: every execution must report exactly
// the row count implied by its snapshot's generation, under -race.
func TestSnapshotExecuteOn(t *testing.T) {
	const host = 1
	day := gen.DayStart(1)
	b := gen.NewBuilder(11)
	bash := b.Proc(host, "/bin/bash")
	secret := b.File(host, "/home/alice/.ssh/id_rsa")
	b.Emit(host, bash, secret, types.OpRead, day+1000, 4096)

	st := storage.New(storage.Options{})
	st.Ingest(b.Dataset())
	e := engine.New(st, engine.Options{})
	pq, err := e.Prepare(`
		agentid = 1
		proc p read file f["%id_rsa"] as evt
		return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	baseGen := st.Generation()

	const batches = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			// Each batch adds exactly one more matching read of the secret.
			ev := types.Event{
				ID: types.EventID(100000 + i), AgentID: host,
				Subject: bash, Object: secret,
				Op: types.OpRead, Start: day + 2000 + int64(i), Seq: uint64(100000 + i), Amount: 1,
			}
			st.Ingest(types.NewDataset(nil, []types.Event{ev}))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				snap := st.Snapshot()
				res, err := pq.ExecuteOn(context.Background(), snap)
				if err != nil {
					t.Error(err)
					snap.Close()
					return
				}
				want := 1 + int(snap.Generation()-baseGen)
				if len(res.Rows) != want {
					t.Errorf("generation %d: %d rows, want %d", snap.Generation(), len(res.Rows), want)
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()
	if st.LiveSnapshots() != 0 {
		t.Fatalf("%d snapshots leaked", st.LiveSnapshots())
	}
}

// TestNoLeaksOnErrorPaths drives engine executions down their failure
// exits — budget exhaustion mid-join, cancellation mid-execution, and the
// plain success path as a control — and asserts the backing store's
// live-snapshot and live-cursor counters return to zero each time. An
// execution that errors out of a scheduler loop without closing its
// cursors would strand producer goroutines and pin copy-on-write forever.
func TestNoLeaksOnErrorPaths(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	st := storage.New(storage.Options{})
	st.Ingest(ds)

	assertBaseline := func(step string) {
		t.Helper()
		if n := st.LiveCursors(); n != 0 {
			t.Fatalf("%s: %d cursors leaked", step, n)
		}
		if n := st.LiveSnapshots(); n != 0 {
			t.Fatalf("%s: %d snapshots leaked", step, n)
		}
	}

	multiPattern := `
		proc p read file f as evt1
		proc p write file g as evt2
		with evt1 before evt2
		return p, f, g`

	// Control: a successful multi-pattern run.
	eng := engine.New(st, engine.Options{})
	if _, err := eng.Query(multiPattern); err != nil {
		t.Fatalf("control query: %v", err)
	}
	assertBaseline("success")

	// Budget exhaustion: a tiny tuple ceiling errors out of the join loop
	// while pattern cursors are open.
	tiny := engine.New(st, engine.Options{MaxTuples: 4})
	if _, err := tiny.Query(multiPattern); !errors.Is(err, engine.ErrTooLarge) {
		t.Fatalf("tiny budget returned %v, want ErrTooLarge", err)
	}
	assertBaseline("budget")

	// Pair-budget exhaustion takes a different error exit inside joins.
	pairs := engine.New(st, engine.Options{MaxPairs: 8})
	if _, err := pairs.Query(multiPattern); !errors.Is(err, engine.ErrTooLarge) {
		t.Fatalf("pair budget returned %v, want ErrTooLarge", err)
	}
	assertBaseline("pairs")

	// Cancellation mid-execution.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, multiPattern); err == nil {
		t.Fatal("pre-canceled query succeeded")
	}
	assertBaseline("canceled")

	// The materializing baselines hold full result sets; their error exits
	// must release cursors too.
	for _, strat := range []engine.Strategy{engine.StrategyFetchFilter, engine.StrategyBigJoin} {
		e := engine.New(st, engine.Options{Strategy: strat, MaxTuples: 4})
		if _, err := e.Query(multiPattern); !errors.Is(err, engine.ErrTooLarge) {
			t.Fatalf("strategy %v returned %v, want ErrTooLarge", strat, err)
		}
		assertBaseline(strat.String())
	}

	// Prepared queries over per-request snapshots (the aiqld path).
	pq, err := eng.Prepare(multiPattern)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if _, err := pq.ExecuteOn(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	assertBaseline("prepared on snapshot")
}
