// Package golden pins the end-to-end behaviour of every published query —
// the full evaluation corpus plus the queries shown in
// docs/QUERY_LANGUAGE.md and run by the examples — against committed
// result fixtures over a deterministic generated store.
//
// The fixtures turn "the corpus still runs" into "the corpus still returns
// exactly these rows": a refactor of the scheduler, storage layer or
// cluster tier that silently changes any result set fails this suite.
// After an intentional behaviour change, regenerate with
//
//	go test ./internal/golden -run TestGoldenCorpus -update
//
// and review the fixture diff like any other code change.
package golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/refeval"
	"aiql/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from current results")

const fixturePath = "testdata/golden.json"

// fixtureResult is one query's pinned outcome. Rows are stored sorted
// lexicographically: queries with tied (or absent) sort keys may present
// the same result set in different orders run to run, and the fixture pins
// the set, not the presentation.
type fixtureResult struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// docQueries are the queries documented in docs/QUERY_LANGUAGE.md and the
// examples (quickstart, dependency_tracking, anomaly_detection) — the same
// sources seeding the lexer/parser fuzz corpora. They run against the
// generated scenario; several intentionally return no rows here, which the
// fixture pins too (an accidental match is as much a regression as a lost
// one).
var docQueries = []queries.Query{
	{ID: "doc-quickstart", Src: `agentid = 1
(at "03/02/2017")
proc p read file f["%id_rsa"] as evt1
proc p write ip i as evt2
with evt1 before evt2
return p, f, i.dst_ip`},
	{ID: "doc-dependency", Src: `(at "03/02/2017")
agentid = 1
backward: file f1["%chrome_update.exe"] <-[write] proc p1["%GoogleUpdate%"]
          ->[read] ip i1[dstip = "198.51.100.10"]
return f1, p1, i1`},
	{ID: "doc-anomaly", Src: `(at "03/02/2017")
agentid = 5
window = 1 min, step = 10 sec
proc p write ip i[dstip = "10.10.0.250"] as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)`},
	{ID: "doc-entity-refs", Src: `agentid = 4
proc p1["%cmd.exe"] read file f1 as evt1
return distinct p1, f1`},
	{ID: "doc-global-constraints", Src: `agentid in (1, 2)
(from "03/01/2017" to "03/03/2017")
proc p read || write file f as evt[amount > 4096]
return distinct p, f
sort by p
top 10`},
}

var (
	engOnce sync.Once
	engVal  *engine.Engine
	refVal  *refeval.Evaluator
)

// goldenEngine builds the deterministic store once: SmallConfig with a
// fixed seed is the reference dataset for every fixture.
func goldenEngine() *engine.Engine {
	engOnce.Do(func() {
		ds := gen.Scenario(gen.SmallConfig())
		st := storage.New(storage.Options{})
		st.Ingest(ds)
		engVal = engine.New(st, engine.Options{})
		refVal = refeval.New(ds)
	})
	return engVal
}

// goldenReference is the reference evaluator over goldenEngine's dataset.
func goldenReference() *refeval.Evaluator {
	goldenEngine()
	return refVal
}

func allQueries() []queries.Query {
	all := append(queries.CaseStudy(), queries.Behaviors()...)
	return append(all, docQueries...)
}

func sortedRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], "\x1f") < strings.Join(out[j], "\x1f")
	})
	return out
}

func TestGoldenCorpus(t *testing.T) {
	eng := goldenEngine()
	got := make(map[string]fixtureResult)
	for _, q := range allQueries() {
		if _, dup := got[q.ID]; dup {
			t.Fatalf("duplicate query id %q in corpus", q.ID)
		}
		res, err := eng.Query(q.Src)
		if err != nil {
			t.Fatalf("%s failed to execute: %v\nquery:\n%s", q.ID, err, q.Src)
		}
		got[q.ID] = fixtureResult{Columns: res.Columns, Rows: sortedRows(res.Rows)}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", fixturePath, len(got))
		return
	}

	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update to generate): %v", err)
	}
	var want map[string]fixtureResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", fixturePath, err)
	}

	// The fixtures are the engine's own answers, so each is also held to the
	// reference evaluator, which shares no code with the engine.
	ref := goldenReference()
	for _, q := range allQueries() {
		w, ok := want[q.ID]
		if !ok {
			continue
		}
		ans, err := ref.Query(q.Src)
		if err != nil {
			t.Errorf("%s: reference evaluator: %v", q.ID, err)
			continue
		}
		if err := ans.Check(w.Columns, w.Rows); err != nil {
			t.Errorf("%s: fixture disagrees with the reference evaluator: %v", q.ID, err)
		}
	}

	for id, g := range got {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no fixture committed (run with -update)", id)
			continue
		}
		if !equalStrings(g.Columns, w.Columns) {
			t.Errorf("%s: columns = %v, fixture has %v", id, g.Columns, w.Columns)
		}
		if !equalRows(g.Rows, w.Rows) {
			t.Errorf("%s: result set changed: %d rows vs fixture's %d (run with -update if intended)",
				id, len(g.Rows), len(w.Rows))
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("stale fixture %s: query no longer in corpus (run with -update)", id)
		}
	}
}

// TestGoldenCorpusNotVacuous guards the harness itself: if every fixture
// were empty, the suite would pass while checking nothing.
func TestGoldenCorpusNotVacuous(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Skipf("no fixtures yet: %v", err)
	}
	var want map[string]fixtureResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, w := range want {
		if len(w.Rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(want)/2 {
		t.Errorf("only %d of %d fixtures have rows; the reference dataset is not exercising the corpus", nonEmpty, len(want))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalStrings(a[i], b[i]) {
			return false
		}
	}
	return true
}
