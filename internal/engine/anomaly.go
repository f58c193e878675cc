package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"aiql/internal/storage"
	"aiql/internal/timeutil"
)

// groupState carries the aggregate history of one group key across sliding
// windows. The history starts at the group's first non-empty window and is
// allocated once, at its final length: up to the group's last non-empty
// window. A quiet window's entries stay 0, the aggregate of the empty set,
// without the window being visited. EWMA values are folded incrementally
// per (alias, alpha) so long window sweeps stay linear.
type groupState struct {
	first, last int         // indexes of the first and last windows holding the group's matches
	series      [][]float64 // per aggregate name (windowEnv.names), oldest first
	ewma        map[ewmaKey]ewmaState
	rows        []int // the group's matches in the window being evaluated
	seen        int   // the window rows were gathered for
}

type ewmaKey struct {
	name  string
	alpha float64
}

type ewmaState struct {
	val float64
	n   int // number of series elements folded in
}

// windowEnv exposes one group's aggregate history to the having evaluator:
// n windows of it, the current window last. A name that several return
// items share records one value per item per window, in item order.
type windowEnv struct {
	names map[string]int // aggregate name → index into groupState.series
	width []int          // per name: values recorded per window
	g     *groupState
	n     int
}

func (e *windowEnv) series(name string) ([]float64, bool) {
	i, ok := e.names[name]
	if !ok {
		return nil, false
	}
	return e.g.series[i][:e.n*e.width[i]], true
}

func (e *windowEnv) Value(name string, hist int) (float64, bool) {
	s, ok := e.series(name)
	if !ok {
		return 0, false
	}
	idx := len(s) - 1 - hist
	if idx < 0 {
		return 0, false
	}
	return s[idx], true
}

func (e *windowEnv) Series(name string) []float64 {
	s, _ := e.series(name)
	return s
}

// EWMA implements the incremental exponentially weighted moving average:
// the state folds exactly the series prefix it has seen, so each window
// adds O(1) work per (alias, alpha).
func (e *windowEnv) EWMA(name string, alpha float64) (float64, bool) {
	s, ok := e.series(name)
	if !ok || len(s) == 0 {
		return 0, false
	}
	if e.g.ewma == nil {
		e.g.ewma = make(map[ewmaKey]ewmaState)
	}
	k := ewmaKey{name: name, alpha: alpha}
	st := e.g.ewma[k]
	for ; st.n < len(s); st.n++ {
		if st.n == 0 {
			st.val = s[0]
		} else {
			st.val = alpha*s[st.n] + (1-alpha)*st.val
		}
	}
	e.g.ewma[k] = st
	return st.val, true
}

// aggInput is one aggregate return item with its argument evaluated once
// per match, not once per window holding the match.
type aggInput struct {
	spec      *AggSpec
	slot, off int       // series index of the item's name, and its place among that name's values
	num       []float64 // per match: the argument as a number (numeric functions)
	isNum     []bool
	id        []int          // per match: the argument's distinct-value id (distinct aggregates)
	ids       map[string]int // distinct value → id
	mark      []int          // per distinct value: the last evaluation that counted it
}

func (in *aggInput) load(ts *tupleSet, i int) {
	v := ""
	if in.spec.Arg != nil {
		v = colValue(ts, ts.rows[i], in.spec.Arg)
	}
	if in.num != nil {
		f, err := strconv.ParseFloat(v, 64)
		in.num[i], in.isNum[i] = f, err == nil
	}
	if in.id != nil {
		id, ok := in.ids[v]
		if !ok {
			id = len(in.ids)
			in.ids[v] = id
		}
		in.id[i] = id
	}
}

// eval aggregates the matches rows; tick is unique to the evaluation.
func (in *aggInput) eval(rows []int, tick int) float64 {
	var st aggState
	for _, i := range rows {
		if in.id != nil {
			if in.mark[in.id[i]] == tick {
				continue
			}
			in.mark[in.id[i]] = tick
		}
		st.count++
		if in.num != nil && in.isNum[i] {
			st.add(in.num[i])
		}
	}
	return st.value(in.spec.Func)
}

// floorDiv divides rounding toward negative infinity; b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// runAnomaly executes an anomaly query (paper Sec. 4.3): a single event
// pattern aggregated over a sliding time window, with per-group history
// states (freq[1], freq[2], ...) and moving-average built-ins available to
// the having clause. The engine "maintains the aggregate results as
// historical states and performs the filtering based on the historical
// states" (paper Sec. 5.1).
//
// Its cost follows the matches: windows without matches are jumped over,
// and a window aggregates only the groups that have events in it.
func (e *Engine) runAnomaly(exec *execution) (*Result, error) {
	plan := exec.plan
	if len(plan.Patterns) != 1 {
		return nil, fmt.Errorf("aiql: anomaly queries aggregate a single event pattern, found %d", len(plan.Patterns))
	}
	matches, err := exec.runPattern(0, nil)
	if err != nil {
		return nil, err
	}
	// Time order, ties broken by host and sequence: the order in which
	// groups first appear and which event a plain column reads.
	slices.SortFunc(matches, func(a, b storage.Match) int {
		return cmp.Or(cmp.Compare(a.Event.Start, b.Event.Start),
			cmp.Compare(a.Event.AgentID, b.Event.AgentID), cmp.Compare(a.Event.Seq, b.Event.Seq))
	})
	span := exec.span.Child("window")
	defer span.End()

	ts := newTupleSet(0, matches)
	from, to := plan.Window.From, plan.Window.To
	length, step := plan.Slide.Length, plan.Slide.Step
	nWin := 0
	if to > from {
		nWin = int((to - from + step - 1) / step)
	}

	// Aggregate items record their values under their names; every match
	// that lies in some window has its arguments evaluated up front.
	env := &windowEnv{names: make(map[string]int)}
	var inputs []*aggInput
	for i := range plan.Return.Items {
		item := &plan.Return.Items[i]
		if item.Agg == nil {
			continue
		}
		slot, ok := env.names[item.Name]
		if !ok {
			slot = len(env.width)
			env.names[item.Name] = slot
			env.width = append(env.width, 0)
		}
		in := &aggInput{spec: item.Agg, slot: slot, off: env.width[slot]}
		env.width[slot]++
		if item.Agg.numeric() {
			in.num, in.isNum = make([]float64, len(matches)), make([]bool, len(matches))
		}
		if item.Agg.Distinct {
			in.id, in.ids = make([]int, len(matches)), make(map[string]int)
		}
		inputs = append(inputs, in)
	}

	// Groups are numbered in order of first appearance in a window, each
	// spanning the windows from its first match's to its last match's.
	gid := make([]int, len(matches))
	index := make(map[string]int)
	var groups []groupState
	var key []byte
	for i := range matches {
		t := matches[i].Event.Start
		first := max(floorDiv(t-from-length, step)+1, 0)
		last := min(floorDiv(t-from, step), int64(nWin)-1)
		if first > last {
			gid[i] = -1
			continue
		}
		key = key[:0]
		for k, gref := range plan.GroupBy {
			if k > 0 {
				key = append(key, 0)
			}
			key = append(key, colValue(ts, ts.rows[i], gref)...)
		}
		id, ok := index[string(key)]
		if !ok {
			id = len(groups)
			index[string(key)] = id
			groups = append(groups, groupState{first: int(first), seen: -1})
		}
		groups[id].last = int(last)
		gid[i] = id
		for _, in := range inputs {
			in.load(ts, i)
		}
	}
	for _, in := range inputs {
		in.mark = make([]int, len(in.ids))
	}
	for i := range groups {
		g := &groups[i]
		g.series = make([][]float64, len(env.width))
		for s, w := range env.width {
			g.series[s] = make([]float64, (g.last-g.first+1)*w)
		}
	}

	res := &Result{Columns: append([]string{"window"}, plan.Columns()...)}
	res.DataQueries = exec.queries

	lo, hi, evaluated, tick := 0, 0, 0, 0
	var present []int
	for k := 0; k < nWin && lo < len(matches); k++ {
		if err := exec.checkCtx(); err != nil {
			return nil, err
		}
		wStart := from + int64(k)*step
		wEnd := wStart + length
		// Advance the two pointers over the time-sorted matches.
		for lo < len(matches) && matches[lo].Event.Start < wStart {
			lo++
		}
		hi = max(hi, lo)
		for hi < len(matches) && matches[hi].Event.Start < wEnd {
			hi++
		}
		if lo == hi {
			if hi == len(matches) {
				break
			}
			// Jump so that the next window is the first one ending after
			// the next match.
			k = int(floorDiv(matches[hi].Event.Start-from-length, step))
			continue
		}
		evaluated++

		// Gather the groups present in this window, in group order.
		present = present[:0]
		for i := lo; i < hi; i++ {
			g := &groups[gid[i]]
			if g.seen != k {
				g.seen, g.rows = k, g.rows[:0]
				present = append(present, gid[i])
			}
			g.rows = append(g.rows, i)
		}
		slices.Sort(present)

		window := ""
		for _, id := range present {
			g := &groups[id]
			at := k - g.first
			tick++
			for _, in := range inputs {
				g.series[in.slot][at*env.width[in.slot]+in.off] = in.eval(g.rows, tick)
			}
			env.g, env.n = g, at+1
			if plan.Having != nil {
				ok, err := evalBool(plan.Having, env)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if window == "" {
				window = timeutil.FormatMillis(wStart)
			}
			out := make([]string, 0, len(plan.Return.Items)+1)
			out = append(out, window)
			for i := range plan.Return.Items {
				item := &plan.Return.Items[i]
				if item.Agg != nil {
					v, _ := env.Value(item.Name, 0)
					out = append(out, formatNum(v))
				} else {
					out = append(out, colValue(ts, ts.rows[g.rows[0]], item.Ref))
				}
			}
			res.Rows = append(res.Rows, out)
		}
	}
	span.Add("windows", int64(nWin))
	span.Add("windows_evaluated", int64(evaluated))
	span.Add("groups", int64(len(groups)))
	span.Add("matches", int64(len(matches)))
	if plan.Top > 0 && len(res.Rows) > plan.Top {
		res.Rows = res.Rows[:plan.Top]
	}
	return res, nil
}
