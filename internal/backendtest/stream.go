package backendtest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/types"
)

// StreamOpen builds an empty store under test and returns it with the
// ingest path whose applied batches reach the store's ingest observer: the
// memory store's own, or a durable store's WAL-first one.
type StreamOpen func(t testing.TB) (*storage.Store, func(*types.Dataset) error)

// streamWindowMs spans every suite's dataset, so no join entry expires by
// the watermark and arrival order cannot change a rule's answer.
const streamWindowMs = int64(1) << 41

// streamBufferSize is the matcher's replay ring, which must retain every
// emission of a rule for the final read.
const streamBufferSize = 1 << 16

// StreamConformance holds the live rule tap to the reference evaluator:
// every streamable case of every suite (streamForm), registered as a
// standing rule, must
// emit the reference answer's rows (in any order) when the suite's dataset
// arrives in seeded random batches, with each batch carrying the entities
// the next batch's events refer to. A second pass registers the rules with
// backfill halfway through the arrival. No rule may evict join state or
// overflow its pair budget on the way.
func StreamConformance(t *testing.T, open StreamOpen) {
	t.Helper()
	for si, s := range suites() {
		var cases []int
		srcs := make([]string, len(s.Cases))
		for i, c := range s.Cases {
			if src, ok := streamForm(c.Src); ok {
				cases = append(cases, i)
				srcs[i] = src
			}
		}
		if len(cases) == 0 {
			t.Fatalf("%s: no streamable case", s.Name)
		}
		batches := arrivalBatches(s.Data, rand.New(rand.NewSource(int64(si)+1)))
		for _, registerAt := range []int{0, len(batches) / 2} {
			t.Run(fmt.Sprintf("%s/register_at=%d", s.Name, registerAt), func(t *testing.T) {
				t.Logf("%d streamable cases", len(cases))
				st, ingest := open(t)
				m := stream.NewMatcher(st, stream.Options{MaxRules: len(cases), BufferSize: streamBufferSize})
				st.SetIngestObserver(m.OnIngest)
				for k, b := range batches {
					if k == registerAt {
						for _, i := range cases {
							spec := stream.RuleSpec{ID: s.Cases[i].ID, Query: srcs[i], WindowMs: streamWindowMs, Backfill: k > 0}
							if _, err := m.Register(spec); err != nil {
								t.Fatalf("%s: register: %v", spec.ID, err)
							}
						}
					}
					if err := ingest(b); err != nil {
						t.Fatal(err)
					}
				}
				refs := s.reference()
				for _, i := range cases {
					c := s.Cases[i]
					if refs[i].err != nil {
						t.Errorf("%s: reference error %v\n%s", c.ID, refs[i].err, c.Src)
						continue
					}
					cols, rows, info := emitted(t, m, c.ID)
					if info.StateEvicted != 0 || info.JoinOverflows != 0 || info.PendingDropped != 0 {
						t.Errorf("%s: evicted %d, join overflows %d, pending dropped %d\n%s",
							c.ID, info.StateEvicted, info.JoinOverflows, info.PendingDropped, c.Src)
					}
					if err := refs[i].ans.Check(cols, rows); err != nil {
						t.Errorf("%s: %v\n%s", c.ID, err, c.Src)
					}
				}
			})
		}
	}
}

// streamForm returns the standing-rule form of a case: the case itself
// when its plan is streamable, or, when only a trailing sort by line keeps
// it from streaming (every queries.Random draw ends in one), the case
// without that line. Without top, a sort orders the answer's rows but does
// not choose them, and the stream's rows are compared in any order.
func streamForm(src string) (string, bool) {
	plan, err := compile(src)
	if err != nil {
		return "", false
	}
	if plan.Streamable() == nil {
		return src, true
	}
	i := strings.LastIndex(src, "\nsort by ")
	if plan.Top > 0 || i < 0 || strings.Contains(src[i+1:], "\n") {
		return "", false
	}
	src = src[:i]
	if plan, err := compile(src); err != nil || plan.Streamable() != nil {
		return "", false
	}
	return src, true
}

func compile(src string) (*engine.Plan, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return engine.Compile(q)
}

// emitted reads every emission a rule's replay ring holds.
func emitted(t *testing.T, m *stream.Matcher, id string) ([]string, [][]string, stream.RuleInfo) {
	t.Helper()
	sub, info, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatalf("%s: subscribe: %v", id, err)
	}
	defer sub.Close()
	if info.Seq > streamBufferSize {
		t.Fatalf("%s: %d emissions overflow the replay ring", id, info.Seq)
	}
	rows := make([][]string, 0, info.Seq)
	for len(rows) < int(info.Seq) {
		em, err := sub.Next(t.Context())
		if err != nil {
			t.Fatalf("%s: after %d of %d emissions: %v", id, len(rows), info.Seq, err)
		}
		rows = append(rows, em.Row)
	}
	return info.Columns, rows, info
}

// arrivalBatches splits ds's events, in dataset order, into batches of
// random size, and puts each entity in the batch before the one holding the
// first event that refers to it (the first batch carries its own events'
// entities too, and every entity no event refers to).
func arrivalBatches(ds *types.Dataset, rng *rand.Rand) []*types.Dataset {
	var cuts []int
	for lo := 0; lo < len(ds.Events); {
		hi := min(lo+1+rng.Intn(len(ds.Events)/8+1), len(ds.Events))
		cuts = append(cuts, hi)
		lo = hi
	}
	firstBatch := make(map[types.EntityID]int)
	lo := 0
	for k, hi := range cuts {
		for _, ev := range ds.Events[lo:hi] {
			for _, id := range []types.EntityID{ev.Subject, ev.Object} {
				if _, seen := firstBatch[id]; !seen {
					firstBatch[id] = max(k-1, 0)
				}
			}
		}
		lo = hi
	}
	ents := make([][]types.Entity, len(cuts))
	for _, e := range ds.Entities {
		k := firstBatch[e.ID] // zero, the first batch, when unreferenced
		ents[k] = append(ents[k], e)
	}
	out := make([]*types.Dataset, len(cuts))
	lo = 0
	for k, hi := range cuts {
		out[k] = types.NewDataset(ents[k], ds.Events[lo:hi])
		lo = hi
	}
	return out
}
