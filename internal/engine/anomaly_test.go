package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"aiql/internal/obs"
	"aiql/internal/refeval"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// anomalyDay is the day the generated datasets center on.
var anomalyDay, _ = timeutil.AtWindow("03/02/2017")

// anomalyQuery writes one compared query: host 1, the scope as the query's
// time window (second literals, the end inclusive), the sliding window in
// milliseconds, and a read/write pattern.
func anomalyQuery(scope timeutil.Window, length, step int64, ret string) string {
	lit := func(t int64) string { return time.UnixMilli(t).UTC().Format("2006-01-02 15:04:05") }
	return fmt.Sprintf("agentid = 1\n(from %q to %q)\nwindow = %d ms, step = %d ms\nproc p read || write file f as evt\n%s",
		lit(scope.From), lit(scope.To-1000), length, step, ret)
}

// anomalyReturns covers every aggregate, count(distinct), history refs,
// the moving averages, top, ungrouped and non-grouped columns, and two
// aggregates sharing a name.
var anomalyReturns = []string{
	`return p, count(f) as x group by p`,
	`return p, count(distinct f) as x group by p having x > 1`,
	`return p, sum(evt.amount) as x group by p having x > x[1]`,
	`return p, avg(evt.amount) as x group by p having (x > 2 * (x + x[1] + x[2]) / 3)`,
	`return p, min(evt.amount) as lo, max(evt.amount) as hi group by p having hi - lo > 100`,
	`return p, count(f) as x group by p having x > EWMA(x, 0.5)`,
	`return p, count(distinct f) as x group by p having x >= 2 && (x - EWMA(x, 0.3)) / EWMA(x, 0.3) > 0.2`,
	`return p, count(f) as x group by p having x > SMA(x, 3)`,
	`return p, sum(evt.amount) as x group by p having x > CMA(x)`,
	`return p, count(f) as x group by p having x >= WMA(x, 4) top 5`,
	`return p, f, count(f) as x group by p, f having x[1] == 0`,
	`return p, f, count(f) as x group by p having x > 1`,
	`return count(f) as x having x > x[2] || x == 1`,
	`return p, count(f) as x, sum(distinct evt.amount) as x group by p having x[1] > 0`,
	`return p, avg(distinct evt.amount) as a, count(evt.amount) as c group by p having a > 400 || c > 3 top 7`,
}

// anomalySlides are (length, step) pairs in ms: step below, equal to and
// above the length, a step that does not divide the length, and windows
// down to a second.
var anomalySlides = [][2]int64{
	{60_000, 10_000},
	{60_000, 60_000},
	{30_000, 45_000},
	{60_000, 25_000},
	{7_001, 3_000},
	{1_000, 1_000},
	{600_000, 7_000},
}

// genAnomalyScope returns a scope of 10 minutes to 3 hours on anomalyDay,
// on whole seconds but not aligned to any step.
func genAnomalyScope(rng *rand.Rand) timeutil.Window {
	from := anomalyDay.From + 1000*rng.Int63n(6*3_600)
	return timeutil.Window{From: from, To: from + 1000*(600+rng.Int63n(3*3_600))}
}

// genAnomalyDataset generates up to 150 events around scope: in bursts
// with quiet gaps that can be longer than a window, a quarter of the
// scope's span spilling out on either side, some on shared timestamps, and
// process i only active after the i-th sixth of the span, so that groups
// first appear late.
func genAnomalyDataset(rng *rand.Rand, scope timeutil.Window) *types.Dataset {
	const procs, files = 6, 8
	var ents []types.Entity
	for i := 0; i < procs; i++ {
		ents = append(ents, types.Entity{ID: types.EntityID(1 + i), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: fmt.Sprintf("p%d.exe", i)}})
	}
	for i := 0; i < files; i++ {
		ents = append(ents, types.Entity{ID: types.EntityID(100 + i), Type: types.EntityFile, AgentID: 1,
			Attrs: map[string]string{types.AttrName: fmt.Sprintf("/docs/f%d", i)}})
	}
	span := scope.To - scope.From
	lo, hi := scope.From-span/4, scope.To+span/4
	bursts := make([]int64, 1+rng.Intn(6))
	for i := range bursts {
		bursts[i] = lo + rng.Int63n(hi-lo)
	}
	n := rng.Intn(150)
	evs := make([]types.Event, 0, n)
	for i := 0; i < n; i++ {
		width := 1 + rng.Int63n(span/6)
		t := bursts[rng.Intn(len(bursts))] + rng.Int63n(width) - width/2
		if rng.Intn(2) == 0 {
			t -= t % 1000
		}
		active := min(1+int((t-lo)*procs/(hi-lo)), procs)
		op := types.OpRead
		if rng.Intn(3) == 0 {
			op = types.OpWrite
		}
		evs = append(evs, types.Event{
			ID: types.EventID(i + 1), AgentID: 1,
			Subject: types.EntityID(1 + rng.Intn(max(active, 1))),
			Object:  types.EntityID(100 + rng.Intn(files)),
			Op:      op, Start: t, End: t, Seq: uint64(i), Amount: rng.Int63n(1000),
		})
	}
	return types.NewDataset(ents, evs)
}

// compareAnomaly answers one query through the engine and the reference
// evaluator, failing unless the answers are equal, rows and their order
// included. It returns the number of rows.
func compareAnomaly(t testing.TB, ds *types.Dataset, src string) int {
	t.Helper()
	st := storage.New(storage.Options{})
	st.Ingest(ds)
	got, gotErr := New(st, Options{}).Query(src)
	want, wantErr := refeval.New(ds).Query(src)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, reference %v\n%s", gotErr, wantErr, src)
	}
	if gotErr != nil {
		return 0
	}
	g, w := rowStrings(got.Rows), rowStrings(want.Rows)
	if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(g, w) {
		t.Fatalf("answer differs from the reference evaluator\n%s\ngot  %q %d rows %q\nwant %q %d rows %q",
			src, got.Columns, len(g), g, want.Columns, len(w), w)
	}
	return len(g)
}

func rowStrings(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, " | ")
	}
	return out
}

func TestAnomalyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	rows := make([]int, len(anomalyReturns))
	for s := 0; s < seeds; s++ {
		for _, sl := range anomalySlides {
			scope := genAnomalyScope(rng)
			ds := genAnomalyDataset(rng, scope)
			for qi, ret := range anomalyReturns {
				rows[qi] += compareAnomaly(t, ds, anomalyQuery(scope, sl[0], sl[1], ret))
			}
		}
	}
	// Every query must have produced rows somewhere, or the comparison
	// says nothing about it.
	for qi, n := range rows {
		if n == 0 {
			t.Errorf("no case returned rows for %q", anomalyReturns[qi])
		}
	}
}

func TestAnomalyMatchesOracleRandomSlides(t *testing.T) {
	rng := rand.New(rand.NewSource(3737))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for i := 0; i < trials; i++ {
		scope := genAnomalyScope(rng)
		ds := genAnomalyDataset(rng, scope)
		length, step := 1+rng.Int63n(20*60_000), 1_000+rng.Int63n(15*60_000)
		compareAnomaly(t, ds, anomalyQuery(scope, length, step, anomalyReturns[rng.Intn(len(anomalyReturns))]))
	}
}

func FuzzAnomalyWindow(f *testing.F) {
	for i, sl := range anomalySlides {
		f.Add(int64(i), uint32(sl[0]), uint32(sl[1]), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, length, step uint32, query uint8) {
		rng := rand.New(rand.NewSource(seed))
		scope := genAnomalyScope(rng)
		ds := genAnomalyDataset(rng, scope)
		src := anomalyQuery(scope, 1+int64(length)%(20*60_000), 1_000+int64(step)%(15*60_000),
			anomalyReturns[int(query)%len(anomalyReturns)])
		compareAnomaly(t, ds, src)
	})
}

// fewMatchesStore holds twelve reads by three processes on 03/02/2017,
// clustered at three times of the day.
func fewMatchesStore() *storage.Store {
	var ents []types.Entity
	for i := 0; i < 3; i++ {
		ents = append(ents, types.Entity{ID: types.EntityID(1 + i), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: fmt.Sprintf("p%d.exe", i)}})
	}
	for i := 0; i < 4; i++ {
		ents = append(ents, types.Entity{ID: types.EntityID(100 + i), Type: types.EntityFile, AgentID: 1,
			Attrs: map[string]string{types.AttrName: fmt.Sprintf("/docs/f%d", i)}})
	}
	var evs []types.Event
	for i, off := range []int64{610, 612, 615, 620, 3_600, 3_601, 3_630, 3_700, 50_000, 50_001, 50_002, 50_003} {
		t := anomalyDay.From + off*1000
		evs = append(evs, types.Event{ID: types.EventID(i + 1), AgentID: 1, Subject: types.EntityID(1 + i%3),
			Object: types.EntityID(100 + i%4), Op: types.OpRead, Start: t, End: t, Seq: uint64(i)})
	}
	st := storage.New(storage.Options{})
	st.Ingest(types.NewDataset(ents, evs))
	return st
}

func fewMatchesQuery(scope string) string {
	return scope + `
agentid = 1
window = 1 min, step = 10 sec
proc p read file f as evt
return p, count(distinct f) as freq
group by p
having freq >= EWMA(freq, 0.5)`
}

// TestAnomalyAllocsIndependentOfScope guards the window loop's cost without
// a timer: the same handful of matches, scoped to one day (8 640 windows)
// or to thirty, must cost the same number of allocations. The per-window
// loop it replaced allocates per (window, group): 26 165 times over one day
// and 751 986 over thirty.
func TestAnomalyAllocsIndependentOfScope(t *testing.T) {
	e := New(fewMatchesStore(), Options{})
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Query(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	day := allocs(fewMatchesQuery(`(from "03/02/2017" to "03/02/2017")`))
	month := allocs(fewMatchesQuery(`(from "03/01/2017" to "03/30/2017")`))
	if month-day > 4 || day-month > 4 {
		t.Errorf("allocations depend on the scope: %.0f over one day, %.0f over thirty", day, month)
	}
}

func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if c := findSpan(s.Children, name); c != nil {
			return c
		}
	}
	return nil
}

func TestAnomalyWindowSpan(t *testing.T) {
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := New(fewMatchesStore(), Options{}).QueryContext(ctx, fewMatchesQuery(`(at "03/02/2017")`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	exec := findSpan(tr.Snapshot().Spans, "execute")
	if exec == nil {
		t.Fatal("no execute span")
	}
	w := findSpan(exec.Children, "window")
	if w == nil {
		t.Fatal("no window span under execute")
	}
	want := map[string]int64{"windows": 8640, "groups": 3, "matches": 12}
	for k, v := range want {
		if w.Counters[k] != v {
			t.Errorf("window span %s = %d, want %d", k, w.Counters[k], v)
		}
	}
	// Three clusters of matches, each covering a handful of windows.
	if n := w.Counters["windows_evaluated"]; n < 3 || n > 40 {
		t.Errorf("windows_evaluated = %d, want the few windows holding matches", n)
	}
}

// TestNarrowScanSpanCountsEntityVerdicts: a traced narrow query's scan span
// carries entity_verdicts, the predicate evaluations spent resolving its
// candidate sets — here one per distinct exe_name (three), since the
// wildcard resolves through the entity index's value dictionary.
func TestNarrowScanSpanCountsEntityVerdicts(t *testing.T) {
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := New(fewMatchesStore(), Options{}).QueryContext(ctx, `(at "03/02/2017")
agentid = 1
proc p["%p1.exe"] read file f
return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	scan := findSpan(tr.Snapshot().Spans, "scan")
	if scan == nil {
		t.Fatal("no scan span")
	}
	if got := scan.Counters["entity_verdicts"]; got != 3 {
		t.Errorf("scan span entity_verdicts = %d, want 3", got)
	}
}
