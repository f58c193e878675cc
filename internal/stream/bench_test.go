package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aiql/internal/gen"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// BenchmarkStreamMatch measures ingest throughput (events/sec) as a
// function of registered-rule count — the cost the continuous-query tap
// adds to the hot ingest path. The acceptance bar: 20 registered monitoring
// rules (selective predicates + join rules, the realistic standing-rule
// shape) stay within 2× of the no-rules ingest path. The "rules=20+broad"
// variant adds a match-everything rule whose cost is output-bound — it
// emits a row for a third of the dataset — to show where throughput goes
// when a rule is really a subscription to the raw feed.
func BenchmarkStreamMatch(b *testing.B) {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 1000, Seed: 5})
	const batchSize = 1000
	// soakRules[0] is the deliberately broad any-read rule; the selective
	// wall is everything after it.
	selective := soakRules()[1:]
	cases := []struct {
		name  string
		rules []RuleSpec
	}{
		{"rules=0", nil},
		{"rules=1", selective[:1]},
		{"rules=5", selective[:5]},
		{"rules=20", selective[:20]},
		{"rules=20+broad", soakRules()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := storage.New(storage.Options{})
				m := NewMatcher(st, Options{MaxRules: 64, BufferSize: 64})
				st.SetIngestObserver(m.OnIngest)
				for _, spec := range tc.rules {
					if _, err := m.Register(spec); err != nil {
						b.Fatal(err)
					}
				}
				st.Ingest(types.NewDataset(ds.Entities, nil))
				b.StartTimer()
				for lo := 0; lo < len(ds.Events); lo += batchSize {
					hi := lo + batchSize
					if hi > len(ds.Events) {
						hi = len(ds.Events)
					}
					st.Ingest(types.NewDataset(nil, ds.Events[lo:hi]))
				}
			}
			b.ReportMetric(float64(len(ds.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkStreamSubscriberFanOut measures emission delivery with live
// subscribers attached to a broad rule — the publish path's per-subscriber
// cost.
func BenchmarkStreamSubscriberFanOut(b *testing.B) {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 500, Seed: 5})
	for _, nSubs := range []int{1, 8} {
		b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := storage.New(storage.Options{})
				m := NewMatcher(st, Options{BufferSize: 1 << 16})
				st.SetIngestObserver(m.OnIngest)
				if _, err := m.Register(RuleSpec{ID: "r", Query: "proc p read file f return p, f", WindowMs: time.Hour.Milliseconds()}); err != nil {
					b.Fatal(err)
				}
				done := make(chan int, nSubs)
				for s := 0; s < nSubs; s++ {
					sub, _, err := m.Subscribe("r", 0)
					if err != nil {
						b.Fatal(err)
					}
					go func(sub *Subscription) {
						n := 0
						for {
							if _, err := sub.Next(context.Background()); err != nil {
								break
							}
							n++
						}
						done <- n
					}(sub)
				}
				st.Ingest(types.NewDataset(ds.Entities, nil))
				b.StartTimer()
				st.Ingest(types.NewDataset(nil, ds.Events))
				b.StopTimer()
				m.Delete("r") // ends the subscriptions once they have read the ring
				for s := 0; s < nSubs; s++ {
					<-done
				}
				b.StartTimer()
			}
		})
	}
}
