package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aiql/internal/obs"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// naiveGroupState carries the aggregate history of one group key across sliding
// windows; series are oldest-first and include the current window as the
// last element while that window is being evaluated. EWMA values are folded
// incrementally per (alias, alpha) so long window sweeps stay linear.
type naiveGroupState struct {
	keyVals []string
	series  map[string][]float64
	ewma    map[ewmaKey]*ewmaState
	present bool // had events in the current window
}

// naiveWindowEnv exposes one group's aggregate history to the having evaluator.
// The last element of each series is the current window.
type naiveWindowEnv struct {
	g *naiveGroupState
}

func (e *naiveWindowEnv) Value(name string, hist int) (float64, bool) {
	s, ok := e.g.series[name]
	if !ok {
		return 0, false
	}
	idx := len(s) - 1 - hist
	if idx < 0 {
		return 0, false
	}
	return s[idx], true
}

func (e *naiveWindowEnv) Series(name string) []float64 { return e.g.series[name] }

// EWMA implements the incremental exponentially weighted moving average:
// the state folds exactly the series prefix it has seen, so each window
// adds O(1) work per (alias, alpha).
func (e *naiveWindowEnv) EWMA(name string, alpha float64) (float64, bool) {
	s, ok := e.g.series[name]
	if !ok || len(s) == 0 {
		return 0, false
	}
	k := ewmaKey{name: name, alpha: alpha}
	st := e.g.ewma[k]
	if st == nil {
		st = &ewmaState{}
		e.g.ewma[k] = st
	}
	for ; st.n < len(s); st.n++ {
		if st.n == 0 {
			st.val = s[0]
		} else {
			st.val = alpha*s[st.n] + (1-alpha)*st.val
		}
	}
	return st.val, true
}

// naiveAnomaly is the oracle for runAnomaly: the straightforward loop that
// visits every window of the scope and, in each, every group seen so far,
// appending each group's aggregate (0 when it is absent) and evaluating
// having for the groups present. It does windows × groups work and
// allocates per (window, group); runAnomaly must answer exactly as it does.
func naiveAnomaly(exec *execution) (*Result, error) {
	plan := exec.plan
	if len(plan.Patterns) != 1 {
		return nil, fmt.Errorf("aiql: anomaly queries aggregate a single event pattern, found %d", len(plan.Patterns))
	}
	matches, err := exec.runPattern(0, nil)
	if err != nil {
		return nil, err
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Event.Start < matches[j].Event.Start })

	ts := newTupleSet(0, matches)

	groups := make(map[string]*naiveGroupState)
	var groupOrder []string

	aggItems := make([]int, 0, len(plan.Return.Items))
	for i := range plan.Return.Items {
		if plan.Return.Items[i].Agg != nil {
			aggItems = append(aggItems, i)
		}
	}

	res := &Result{Columns: append([]string{"window"}, plan.Columns()...)}
	res.DataQueries = exec.queries

	// Group keys are precomputed once per match, not once per overlapping
	// window.
	keys := make([]string, len(matches))
	keyVals := make([][]string, len(matches))
	for i := range matches {
		vals := make([]string, len(plan.GroupBy))
		for k, gref := range plan.GroupBy {
			vals[k] = colValue(ts, ts.rows[i], gref)
		}
		keyVals[i] = vals
		keys[i] = strings.Join(vals, "\x00")
	}

	lo, hi := 0, 0
	winRows := make(map[string][][]storage.Match)
	for wStart := plan.Window.From; wStart < plan.Window.To; wStart += plan.Slide.Step {
		if err := exec.checkCtx(); err != nil {
			return nil, err
		}
		wEnd := wStart + plan.Slide.Length
		// Advance the two pointers over the time-sorted matches.
		for lo < len(matches) && matches[lo].Event.Start < wStart {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(matches) && matches[hi].Event.Start < wEnd {
			hi++
		}

		// Partition this window's matches by group key.
		for _, g := range groups {
			g.present = false
		}
		clear(winRows)
		for i := lo; i < hi; i++ {
			key := keys[i]
			if _, ok := groups[key]; !ok {
				groups[key] = &naiveGroupState{
					keyVals: keyVals[i],
					series:  make(map[string][]float64),
					ewma:    make(map[ewmaKey]*ewmaState),
				}
				groupOrder = append(groupOrder, key)
			}
			groups[key].present = true
			winRows[key] = append(winRows[key], ts.rows[i])
		}

		// Compute aggregates for every known group (absent groups record 0,
		// so moving averages see the quiet windows too) and evaluate the
		// having clause for groups active in this window.
		for _, key := range groupOrder {
			g := groups[key]
			env := &naiveWindowEnv{g: g}
			for _, ii := range aggItems {
				item := &plan.Return.Items[ii]
				v := naiveComputeAgg(item.Agg, ts, winRows[key])
				g.series[item.Name] = append(g.series[item.Name], v)
			}
			if !g.present {
				continue
			}
			keep := true
			if plan.Having != nil {
				ok, err := evalBool(plan.Having, env)
				if err != nil {
					return nil, err
				}
				keep = ok
			}
			if keep {
				out := make([]string, 0, len(plan.Return.Items)+1)
				out = append(out, timeutil.FormatMillis(wStart))
				for i := range plan.Return.Items {
					item := &plan.Return.Items[i]
					if item.Agg != nil {
						s := g.series[item.Name]
						out = append(out, formatNum(s[len(s)-1]))
					} else {
						out = append(out, colValue(ts, winRows[key][0], item.Ref))
					}
				}
				res.Rows = append(res.Rows, out)
			}
		}
	}
	if plan.Top > 0 && len(res.Rows) > plan.Top {
		res.Rows = res.Rows[:plan.Top]
	}
	return res, nil
}

// naiveComputeAgg evaluates one aggregate over a group's rows.
func naiveComputeAgg(a *AggSpec, ts *tupleSet, rows [][]storage.Match) float64 {
	vals := make([]string, 0, len(rows))
	for _, row := range rows {
		if a.Arg != nil {
			vals = append(vals, colValue(ts, row, a.Arg))
		} else {
			vals = append(vals, "")
		}
	}
	if a.Distinct {
		seen := make(map[string]struct{}, len(vals))
		uniq := vals[:0]
		for _, v := range vals {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				uniq = append(uniq, v)
			}
		}
		vals = uniq
	}
	switch a.Func {
	case "count":
		return float64(len(vals))
	case "sum", "avg", "min", "max":
		var sum, mn, mx float64
		n := 0
		for _, v := range vals {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			if n == 0 {
				mn, mx = f, f
			}
			if f < mn {
				mn = f
			}
			if f > mx {
				mx = f
			}
			sum += f
			n++
		}
		switch a.Func {
		case "sum":
			return sum
		case "avg":
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		case "min":
			return mn
		default:
			return mx
		}
	}
	return 0
}

// anomalyDay is the day the generated datasets center on.
var anomalyDay, _ = timeutil.AtWindow("03/02/2017")

// anomalyHead is the preamble of every compared query. Its pattern window
// of three days is wider than any scope a case sets, so matches outside
// the scope reach the window loop; its sliding window is replaced per case.
const anomalyHead = `agentid = 1
(from "03/01/2017" to "03/03/2017")
window = 1 min, step = 10 sec
proc p read || write file f as evt
`

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
// not aligned to any step.
func genAnomalyScope(rng *rand.Rand) timeutil.Window {
	from := anomalyDay.From + rng.Int63n(6*3_600_000)
	return timeutil.Window{From: from, To: from + 600_000 + rng.Int63n(3*3_600_000)}
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

// compareAnomaly runs one query through runAnomaly and the oracle with the
// given sliding window and scope, failing unless the answers are equal,
// rows and their order included. It returns the number of rows.
func compareAnomaly(t testing.TB, st *storage.Store, src string, slide SlideSpec, scope timeutil.Window) int {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Slide, plan.Window = &slide, scope
	e := New(st, Options{})
	run := func(f func(*execution) (*Result, error)) (*Result, error) {
		ctx := context.Background()
		return f(&execution{eng: e, backend: st, plan: plan, ctx: ctx, bud: &budget{ctx: ctx}})
	}
	got, gotErr := run(e.runAnomaly)
	want, wantErr := run(naiveAnomaly)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, oracle %v\nslide %+v scope %+v\n%s", gotErr, wantErr, slide, scope, src)
	}
	if !reflect.DeepEqual(got, want) {
		var g, w []string
		if got != nil {
			g = rowStrings(got.Rows)
		}
		if want != nil {
			w = rowStrings(want.Rows)
		}
		t.Fatalf("answer differs from the oracle\nslide %+v scope %+v\n%s\ngot  %d rows %q\nwant %d rows %q",
			slide, scope, src, len(g), g, len(w), w)
	}
	if got == nil {
		return 0
	}
	return len(got.Rows)
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
			st := storage.New(storage.Options{})
			st.Ingest(genAnomalyDataset(rng, scope))
			for qi, ret := range anomalyReturns {
				rows[qi] += compareAnomaly(t, st, anomalyHead+ret, SlideSpec{Length: sl[0], Step: sl[1]}, scope)
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
		st := storage.New(storage.Options{})
		st.Ingest(genAnomalyDataset(rng, scope))
		slide := SlideSpec{Length: 1 + rng.Int63n(20*60_000), Step: 1_000 + rng.Int63n(15*60_000)}
		compareAnomaly(t, st, anomalyHead+anomalyReturns[rng.Intn(len(anomalyReturns))], slide, scope)
	}
}

func FuzzAnomalyWindow(f *testing.F) {
	for i, sl := range anomalySlides {
		f.Add(int64(i), uint32(sl[0]), uint32(sl[1]), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, length, step uint32, query uint8) {
		rng := rand.New(rand.NewSource(seed))
		scope := genAnomalyScope(rng)
		st := storage.New(storage.Options{})
		st.Ingest(genAnomalyDataset(rng, scope))
		slide := SlideSpec{Length: 1 + int64(length)%(20*60_000), Step: 1_000 + int64(step)%(15*60_000)}
		compareAnomaly(t, st, anomalyHead+anomalyReturns[int(query)%len(anomalyReturns)], slide, scope)
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
	e := New(fewMatchesStore(), Options{DisableSplitDays: true})
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
