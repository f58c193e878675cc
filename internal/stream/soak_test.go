package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aiql/internal/gen"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// soakRules is a ~20-rule wall mixing selective and broad single-pattern
// rules with multi-pattern join rules — the CI stream-soak configuration.
func soakRules() []RuleSpec {
	window := time.Hour.Milliseconds()
	rules := []RuleSpec{
		// Deliberately broad: matches every read, so stalled subscribers
		// overflow their buffers and must be dropped, not waited for.
		{ID: "any-read", Query: `proc p read file f return p, f`, WindowMs: window},
		{ID: "exfil", Query: `proc p read file f["%id_rsa"] return p, f`, WindowMs: window},
		{ID: "c2", Query: `proc p connect ip i[dstip = "` + gen.AttackerIP + `"] return p, i`, WindowMs: window},
		{ID: "dropper", Query: `proc p1 write file f as evt1
proc p2["%invupd.exe"] read file f as evt2
with evt1 before evt2
return p1, p2, f`, WindowMs: window},
		{ID: "spawn-read", Query: `proc p1 start proc p2 as evt1
proc p2 read file f["%invoice.xls"] as evt2
with evt1 before evt2
return p1, p2, f`, WindowMs: window},
		{ID: "distinct-writers", Query: `proc p write ip i return distinct p`, WindowMs: window},
	}
	// Per-agent selective rules round the wall out to ~20 without creating
	// unselective join storms.
	for a := 1; a <= 15; a++ {
		rules = append(rules, RuleSpec{
			ID:       fmt.Sprintf("agent-%d", a),
			Query:    fmt.Sprintf("agentid = %d\nproc p execute file f return p, f", a),
			WindowMs: window,
		})
	}
	return rules
}

// TestStreamSoak is the CI stream-soak job: a 100k-event dataset ingested
// in batches against ~20 standing rules, under continuous subscriber churn
// — fast consumers, slow consumers that must be dropped, and mid-flight
// subscribes/unsubscribes — asserting freedom from deadlock and data races
// (run with -race), ingest never blocking, and counter consistency at the
// end.
func TestStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the 100k-event soak")
	}
	ds := gen.Scenario(gen.Config{Hosts: 15, Days: 3, BackgroundPerHostDay: 2250, Seed: 3}) // ~100k events
	if len(ds.Events) < 100_000 {
		t.Fatalf("soak dataset has only %d events", len(ds.Events))
	}
	st := storage.New(storage.Options{})
	m := NewMatcher(st, Options{MaxRules: 64, BufferSize: 128})
	st.SetIngestObserver(m.OnIngest)

	rules := soakRules()
	for _, spec := range rules {
		if _, err := m.Register(spec); err != nil {
			t.Fatalf("register %s: %v", spec.ID, err)
		}
	}

	var (
		stop     atomic.Bool
		received atomic.Uint64
		churns   atomic.Uint64
		wg       sync.WaitGroup
	)
	// Subscriber churn: per rule, one goroutine that repeatedly subscribes,
	// consumes for a while (draining fast or stalling to provoke drops),
	// and unsubscribes.
	for i, spec := range rules {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				sub, _, err := m.Subscribe(id, 0)
				if err != nil {
					t.Errorf("subscribe %s: %v", id, err)
					return
				}
				churns.Add(1)
				if (i+round)%3 == 0 {
					// Deliberate stall: this subscriber never reads and must
					// be dropped once it falls a buffer behind.
					time.Sleep(2 * time.Millisecond)
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
					for {
						if _, err := sub.Next(ctx); err != nil {
							break
						}
						received.Add(1)
					}
					cancel()
				}
				sub.Close()
			}
		}(i, spec.ID)
	}

	// Ingest the dataset in 1000-event batches: entities first, then the
	// event stream, timed so a blocked tap turns into a test timeout.
	start := time.Now()
	st.Ingest(types.NewDataset(ds.Entities, nil))
	const batchSize = 1000
	for lo := 0; lo < len(ds.Events); lo += batchSize {
		hi := lo + batchSize
		if hi > len(ds.Events) {
			hi = len(ds.Events)
		}
		st.Ingest(types.NewDataset(nil, ds.Events[lo:hi]))
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	stats := m.Stats()
	if stats.Rules != len(rules) {
		t.Errorf("rules = %d, want %d", stats.Rules, len(rules))
	}
	if stats.Emitted == 0 {
		t.Error("soak produced no emissions")
	}
	// Per-rule sequence numbers must sum to the global emission counter —
	// no emission lost or double-counted under churn.
	var seqSum uint64
	subs := 0
	for _, ri := range m.Rules() {
		seqSum += ri.Seq
		subs += ri.Subscribers
	}
	if seqSum != stats.Emitted {
		t.Errorf("per-rule seq sum %d != emitted %d", seqSum, stats.Emitted)
	}
	if subs != 0 {
		t.Errorf("%d subscribers leaked", subs)
	}
	if stats.DroppedSlowConsumers == 0 {
		t.Error("no slow consumer was ever dropped; the soak's stalled subscribers should overflow the any-read rule's buffers")
	}
	t.Logf("soak: %d events / %d rules in %v; emitted %d, received %d, churns %d, slow-drops %d, state %d (evicted %d)",
		len(ds.Events), len(rules), elapsed.Round(time.Millisecond),
		stats.Emitted, received.Load(), churns.Load(), stats.DroppedSlowConsumers,
		stats.StateBuffered, stats.StateEvicted)
}
