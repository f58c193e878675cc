package golden

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/types"
)

// streamParityWindowMs spans the whole reference dataset, so window expiry
// never explains a divergence in this suite.
const streamParityWindowMs = int64(1) << 41

// TestGoldenCorpusStreamParity is the batch/stream equivalence wall: every
// streamable fixture in the golden corpus, registered as a standing rule
// and replayed event-by-event through the ingest tap, must emit exactly the
// rows the batch engine's committed fixture pins. One shared replay feeds
// every rule at once — the matcher's op-indexed routing and per-rule join
// state are exercised under full corpus load, not one rule at a time.
func TestGoldenCorpusStreamParity(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run TestGoldenCorpus -update first): %v", err)
	}
	var want map[string]fixtureResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	st := storage.New(storage.Options{})
	m := stream.NewMatcher(st, stream.Options{
		MaxRules:   256,
		BufferSize: 1 << 14, // the replay ring must retain every emission
	})
	st.SetIngestObserver(m.OnIngest)

	streamable := 0
	ruleIDs := make(map[string]string) // query id -> rule id
	for _, q := range allQueries() {
		plan, err := compileQuery(q.Src)
		if err != nil {
			t.Fatalf("%s no longer compiles: %v", q.ID, err)
		}
		if plan.Streamable() != nil {
			continue
		}
		streamable++
		info, err := m.Register(stream.RuleSpec{ID: "g-" + q.ID, Query: q.Src, WindowMs: streamParityWindowMs})
		if err != nil {
			t.Fatalf("%s: register: %v", q.ID, err)
		}
		ruleIDs[q.ID] = info.ID
	}
	if streamable < 20 {
		t.Fatalf("only %d fixtures are streamable; the parity wall is not exercising the corpus", streamable)
	}

	// Replay the reference dataset: entities first (a standing rule matches
	// an event against the entities known at its arrival), then every event
	// as its own ingest batch — the per-event path a live agent stream
	// takes, not the bulk path the fixtures were generated with.
	ds := gen.Scenario(gen.SmallConfig())
	st.Ingest(types.NewDataset(ds.Entities, nil))
	for i := range ds.Events {
		st.Ingest(types.NewDataset(nil, []types.Event{ds.Events[i]}))
	}

	checked := 0
	for qid, ruleID := range ruleIDs {
		fix, ok := want[qid]
		if !ok {
			t.Errorf("%s: no fixture committed", qid)
			continue
		}
		sub, info, err := m.Subscribe(ruleID, 0)
		if err != nil {
			t.Fatalf("%s: subscribe: %v", qid, err)
		}
		if info.Seq > 1<<14 {
			t.Fatalf("%s: %d emissions overflowed the replay ring; grow BufferSize", qid, info.Seq)
		}
		var rows [][]string
		for _, em := range retained(sub) {
			rows = append(rows, em.Row)
		}
		got := sortedRows(rows)
		if !equalRows(got, fix.Rows) {
			t.Errorf("%s: stream emitted %d rows, fixture pins %d — batch/stream parity broken\nstream: %v\nfixture: %v",
				qid, len(got), len(fix.Rows), got, fix.Rows)
		}
		checked++
	}
	t.Logf("replayed %d events through %d standing rules; %d fixtures verified", len(ds.Events), streamable, checked)
}

// TestGoldenCorpusStreamParityWithBackfill covers the other registration
// order: the dataset is ingested first and every streamable rule registers
// with backfill — the snapshot replay must produce the same fixture rows
// the live replay does.
func TestGoldenCorpusStreamParityWithBackfill(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures: %v", err)
	}
	var want map[string]fixtureResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	st := storage.New(storage.Options{})
	m := stream.NewMatcher(st, stream.Options{MaxRules: 256, BufferSize: 1 << 14})
	st.SetIngestObserver(m.OnIngest)
	st.Ingest(gen.Scenario(gen.SmallConfig()))

	checked := 0
	for _, q := range allQueries() {
		plan, err := compileQuery(q.Src)
		if err != nil {
			t.Fatalf("%s no longer compiles: %v", q.ID, err)
		}
		if plan.Streamable() != nil {
			continue
		}
		info, err := m.Register(stream.RuleSpec{
			ID: "b-" + q.ID, Query: q.Src, WindowMs: streamParityWindowMs, Backfill: true,
		})
		if err != nil {
			t.Fatalf("%s: register: %v", q.ID, err)
		}
		sub, _, err := m.Subscribe(info.ID, 0)
		if err != nil {
			t.Fatalf("%s: subscribe: %v", q.ID, err)
		}
		var rows [][]string
		for _, em := range retained(sub) {
			if !em.Backfill {
				t.Errorf("%s: pre-registration data emitted without the backfill flag", q.ID)
			}
			rows = append(rows, em.Row)
		}
		got := sortedRows(rows)
		if fix := want[q.ID]; !equalRows(got, fix.Rows) {
			t.Errorf("%s: backfill emitted %d rows, fixture pins %d\nstream: %v\nfixture: %v",
				q.ID, len(got), len(fix.Rows), got, fix.Rows)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d fixtures checked", checked)
	}
}

func compileQuery(src string) (*engine.Plan, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return engine.Compile(q)
}

// retained reads, without waiting, every emission the rule's ring holds
// past the subscription's cursor, and closes the subscription.
func retained(sub *stream.Subscription) []stream.Emission {
	defer sub.Close()
	now, cancel := context.WithCancel(context.Background())
	cancel()
	var out []stream.Emission
	for {
		em, err := sub.Next(now)
		if err != nil {
			return out
		}
		out = append(out, em)
	}
}
