package refeval

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"aiql/internal/ast"
	"aiql/internal/parser"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Evaluator answers queries over one dataset.
type Evaluator struct {
	events   []types.Event // in time order: Start, then host, then sequence
	entities map[types.EntityID]*types.Entity
}

// New prepares ds for evaluation. ds is not modified.
func New(ds *types.Dataset) *Evaluator {
	e := &Evaluator{
		events:   append([]types.Event(nil), ds.Events...),
		entities: make(map[types.EntityID]*types.Entity, len(ds.Entities)),
	}
	for i := range ds.Entities {
		e.entities[ds.Entities[i].ID] = &ds.Entities[i]
	}
	sort.SliceStable(e.events, func(i, j int) bool {
		a, b := &e.events[i], &e.events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.AgentID != b.AgentID {
			return a.AgentID < b.AgentID
		}
		return a.Seq < b.Seq
	})
	return e
}

// Query parses and answers src.
func (e *Evaluator) Query(src string) (*Answer, error) {
	parsed, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	q, err := compile(parsed)
	if err != nil {
		return nil, err
	}
	if q.slide {
		return e.anomaly(q)
	}
	return e.multievent(q)
}

// binding is one event bound to a pattern, with its two entities.
type binding struct {
	ev        *types.Event
	subj, obj *types.Entity
}

type attributes interface {
	Attr(key string) (string, bool)
}

func value(row []binding, c col) (string, bool) {
	b := row[c.pat]
	var a attributes = b.subj
	switch {
	case c.event:
		a = b.ev
	case c.obj:
		a = b.obj
	}
	return a.Attr(c.attr)
}

// bindings lists the events matching one pattern, in time order.
func (e *Evaluator) bindings(p *pattern) []binding {
	var out []binding
	for i := range e.events {
		ev := &e.events[i]
		if len(p.agents) > 0 && !contains(p.agents, ev.AgentID) {
			continue
		}
		if !p.win.holds(ev.Start) || !p.ops[ev.Op] {
			continue
		}
		subj, obj := e.entities[ev.Subject], e.entities[ev.Object]
		if subj == nil || obj == nil || subj.Type != p.subjType || obj.Type != p.objType {
			continue
		}
		if allHold(p.subjCstr, subj) && allHold(p.objCstr, obj) && allHold(p.evtCstr, ev) {
			out = append(out, binding{ev: ev, subj: subj, obj: obj})
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func allHold(cs []cstr, a attributes) bool {
	for _, c := range cs {
		if !holds(c.expr, c.def, a) {
			return false
		}
	}
	return true
}

// holds evaluates an attribute constraint. A missing attribute satisfies
// only != and not in.
func holds(e ast.AttrExpr, def string, a attributes) bool {
	switch v := e.(type) {
	case *ast.Cstr:
		attr := v.Attr
		if attr == "" {
			attr = def
		}
		got, ok := a.Attr(attr)
		switch v.Op {
		case "=":
			return ok && equal(v.Val, got)
		case "!=":
			return !ok || !equal(v.Val, got)
		case "in":
			return ok && anyEqual(v.Vals, got)
		case "notin":
			return !ok || !anyEqual(v.Vals, got)
		}
		return ok && ordered(v.Op, compare(got, v.Val))
	case *ast.NotAttr:
		return !holds(v.X, def, a)
	case *ast.BinAttr:
		if v.Op == "&&" {
			return holds(v.L, def, a) && holds(v.R, def, a)
		}
		return holds(v.L, def, a) || holds(v.R, def, a)
	}
	return false
}

// equal is the language's `=`: a value holding % is a LIKE pattern.
func equal(val, got string) bool {
	if strings.Contains(val, "%") {
		return like(val, got)
	}
	return got == val
}

func anyEqual(vals []string, got string) bool {
	for _, v := range vals {
		if equal(v, got) {
			return true
		}
	}
	return false
}

// like matches s against a pattern in which % stands for any run of
// characters, the empty run included, and every other character for
// itself. It backtracks to the most recent %, so a repeated literal (the
// "a" of "%a" against "a_a") is tried at every place it occurs.
func like(pattern, s string) bool {
	p, i := 0, 0
	star, resume := -1, 0
	for i < len(s) {
		switch {
		case p < len(pattern) && pattern[p] == '%':
			star, resume = p, i
			p++
		case p < len(pattern) && pattern[p] == s[i]:
			p++
			i++
		case star >= 0:
			resume++
			p, i = star+1, resume
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// compare orders two values as numbers when both are numbers, otherwise
// as strings.
func compare(a, b string) int {
	x, errA := strconv.ParseFloat(a, 64)
	y, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return strings.Compare(a, b)
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func ordered(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// tuples joins the patterns by nested loops in declaration order. Each
// relationship is tested in the innermost loop that binds both of its
// patterns.
func (e *Evaluator) tuples(q *query) [][]binding {
	cands := make([][]binding, len(q.pats))
	for i, p := range q.pats {
		cands[i] = e.bindings(p)
	}
	var out [][]binding
	row := make([]binding, len(q.pats))
	var loop func(d int)
	loop = func(d int) {
		if d == len(q.pats) {
			out = append(out, append([]binding(nil), row...))
			return
		}
		for _, b := range cands[d] {
			row[d] = b
			if related(q, row, d) {
				loop(d + 1)
			}
		}
	}
	loop(0)
	return out
}

// related tests the relationships whose later pattern is d.
func related(q *query, row []binding, d int) bool {
	last := func(a, b int) bool { return max(a, b) == d }
	for _, s := range q.same {
		if last(s[0].pat, s[1].pat) && entityOf(row, s[0]).ID != entityOf(row, s[1]).ID {
			return false
		}
	}
	for _, r := range q.attrs {
		if !last(r.a.pat, r.b.pat) {
			continue
		}
		a, okA := value(row, r.a)
		b, okB := value(row, r.b)
		if !okA || !okB {
			return false
		}
		switch r.op {
		case "=":
			if a != b {
				return false
			}
		case "!=":
			if a == b {
				return false
			}
		default:
			if !ordered(r.op, compare(a, b)) {
				return false
			}
		}
	}
	for _, t := range q.temps {
		if last(t.a, t.b) && !inOrder(t, row[t.a].ev, row[t.b].ev) {
			return false
		}
	}
	return true
}

func entityOf(row []binding, c col) *types.Entity {
	if c.obj {
		return row[c.pat].obj
	}
	return row[c.pat].subj
}

// inOrder tests a temporal relationship. a is before b when it starts
// earlier, or at the same millisecond on the same host with a lower
// sequence number; a range bounds how much later b starts.
func inOrder(t tempRel, a, b *types.Event) bool {
	d := b.Start - a.Start
	if t.kind == "within" {
		return t.hi <= 0 || (t.lo <= abs(d) && abs(d) <= t.hi)
	}
	before := d > 0 || (d == 0 && a.AgentID == b.AgentID && a.Seq < b.Seq)
	return before && (t.hi <= 0 || (t.lo <= d && d <= t.hi))
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (q *query) aggregates() bool {
	for _, it := range q.items {
		if it.fn != "" {
			return true
		}
	}
	return false
}

func (q *query) columns() []string {
	if q.count {
		return []string{"count"}
	}
	out := make([]string, len(q.items))
	for i, it := range q.items {
		out[i] = it.name
	}
	return out
}

// cell renders one column of a bound row; a missing attribute is empty.
func cell(row []binding, c col) string {
	v, _ := value(row, c)
	return v
}

func (e *Evaluator) multievent(q *query) (*Answer, error) {
	tuples := e.tuples(q)
	a := &Answer{Columns: q.columns(), keys: q.sortBy, desc: q.desc}
	var rows [][]string
	if q.aggregates() || len(q.groupBy) > 0 {
		var err error
		if rows, err = grouped(q, tuples); err != nil {
			return nil, err
		}
	} else {
		for _, t := range tuples {
			out := make([]string, len(q.items))
			for i, it := range q.items {
				out[i] = cell(t, *it.ref)
			}
			rows = append(rows, out)
		}
		if q.distinct {
			rows = distinct(rows)
		}
		if q.count {
			a.Rows = [][]string{{strconv.Itoa(len(rows))}}
			a.keys = nil
			return a, nil
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return a.less(rows[i], rows[j]) })
	a.Rows = rows
	if q.top > 0 && len(rows) > q.top {
		a.Rows, a.ranked = rows[:q.top], rows
	}
	return a, nil
}

// grouped aggregates the tuples per group-by key, groups in order of first
// appearance. A plain column takes the group's first tuple's value.
func grouped(q *query, tuples [][]binding) ([][]string, error) {
	var order []string
	groups := map[string][][]binding{}
	for _, t := range tuples {
		key := groupKey(q, t)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}
	var rows [][]string
	for _, key := range order {
		members := groups[key]
		out := make([]string, len(q.items))
		current := map[string]float64{}
		for i, it := range q.items {
			if it.fn == "" {
				out[i] = cell(members[0], *it.ref)
				continue
			}
			vals := make([]string, len(members))
			for k, m := range members {
				vals[k] = cell(m, *it.ref)
			}
			v := aggregate(it.fn, it.distinct, vals)
			out[i], current[it.name] = number(v), v
		}
		if q.having != nil {
			ok, err := truth(q.having, func(name string) ([]float64, bool) {
				v, ok := current[name]
				return []float64{v}, ok
			})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, out)
	}
	if q.distinct {
		rows = distinct(rows)
	}
	return rows, nil
}

func groupKey(q *query, row []binding) string {
	parts := make([]string, len(q.groupBy))
	for i, g := range q.groupBy {
		parts[i] = cell(row, g)
	}
	return strings.Join(parts, "\x00")
}

func distinct(rows [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, r := range rows {
		k := strings.Join(r, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// aggregate folds one group's values. count counts every value; sum, avg,
// min and max fold the values that are numbers. Over no values every
// function is 0.
func aggregate(fn string, distinct bool, vals []string) float64 {
	seen := map[string]bool{}
	count, n := 0, 0
	var sum, lo, hi float64
	for _, v := range vals {
		if distinct {
			if seen[v] {
				continue
			}
			seen[v] = true
		}
		count++
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		if n == 0 || f < lo {
			lo = f
		}
		if n == 0 || f > hi {
			hi = f
		}
		sum += f
		n++
	}
	switch fn {
	case "count":
		return float64(count)
	case "sum":
		return sum
	case "avg":
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	case "min":
		return lo
	case "max":
		return hi
	}
	return 0
}

// number renders an aggregate: integers without a fraction, everything
// else to six significant digits.
func number(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// anomaly answers a sliding-window query. Window k covers
// [from + k*step, from + k*step + length) for every k whose window starts
// inside the query's time window. A group's history begins at its first
// window with events and records every window from there, the aggregate of
// no events (0) for a quiet one; having is tested in the windows where the
// group has events. Rows come in window order and, within a window, in the
// order the groups' first events came.
func (e *Evaluator) anomaly(q *query) (*Answer, error) {
	if len(q.pats) != 1 {
		return nil, errorf("an anomaly query aggregates one event pattern, not %d", len(q.pats))
	}
	events := e.bindings(q.pats[0])
	type group struct {
		first   []binding // the group's events in the current window, nil when quiet
		history map[string][]float64
	}
	var groups []*group
	index := map[string]*group{}
	a := &Answer{Columns: append([]string{"window"}, q.columns()...), ordered: true}
	nWin := int64(0)
	if q.win.to > q.win.from {
		nWin = (q.win.to - q.win.from + q.step - 1) / q.step
	}
	for k := int64(0); k < nWin; k++ {
		start := q.win.from + k*q.step
		end := start + q.length
		for _, g := range groups {
			g.first = nil
		}
		for _, b := range events {
			if b.ev.Start < start || b.ev.Start >= end {
				continue
			}
			row := []binding{b}
			key := groupKey(q, row)
			g := index[key]
			if g == nil {
				g = &group{history: map[string][]float64{}}
				index[key] = g
				groups = append(groups, g)
			}
			g.first = append(g.first, b)
		}
		// Every group seen so far records this window, in item order; a name
		// several items share records one value per item.
		for _, g := range groups {
			for _, it := range q.items {
				if it.fn == "" {
					continue
				}
				vals := make([]string, len(g.first))
				for i, b := range g.first {
					vals[i] = cell([]binding{b}, *it.ref)
				}
				g.history[it.name] = append(g.history[it.name], aggregate(it.fn, it.distinct, vals))
			}
		}
		for _, g := range groups {
			if g.first == nil {
				continue
			}
			if q.having != nil {
				ok, err := truth(q.having, func(name string) ([]float64, bool) {
					s, ok := g.history[name]
					return s, ok
				})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out := []string{timeutil.FormatMillis(start)}
			for _, it := range q.items {
				if it.fn == "" {
					out = append(out, cell([]binding{g.first[0]}, *it.ref))
					continue
				}
				s := g.history[it.name]
				out = append(out, number(s[len(s)-1]))
			}
			a.Rows = append(a.Rows, out)
		}
	}
	if q.top > 0 && len(a.Rows) > q.top {
		a.Rows = a.Rows[:q.top]
	}
	return a, nil
}

// truth evaluates a having expression; a nonzero value is true. history
// returns an aggregate's values, oldest first and the current window last.
func truth(e ast.Expr, history func(string) ([]float64, bool)) (bool, error) {
	v, err := eval(e, history)
	return v != 0, err
}

func eval(e ast.Expr, history func(string) ([]float64, bool)) (float64, error) {
	sub := func(x ast.Expr) (float64, error) { return eval(x, history) }
	switch v := e.(type) {
	case *ast.NumLit:
		return v.Val, nil
	case *ast.StrLit:
		return 0, errorf("string %q in a numeric expression", v.Val)
	case *ast.VarRef:
		// A window before the group's history began reads as 0.
		s, _ := history(v.Name)
		if i := len(s) - 1 - v.Hist; i >= 0 && i < len(s) {
			return s[i], nil
		}
		return 0, nil
	case *ast.FieldRef:
		s, ok := history(v.ID + "." + v.Attr)
		if !ok || len(s) == 0 {
			return 0, errorf("unknown field %s.%s in having", v.ID, v.Attr)
		}
		return s[len(s)-1], nil
	case *ast.Unary:
		x, err := sub(v.X)
		if v.Op == "-" {
			return -x, err
		}
		return flag(x == 0), err
	case *ast.Binary:
		l, err := sub(v.L)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := sub(v.R)
			return flag(r != 0), err
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := sub(v.R)
			return flag(r != 0), err
		}
		r, err := sub(v.R)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, nil
			}
			return l / r, nil
		case "=":
			return flag(l == r), nil
		case "!=":
			return flag(l != r), nil
		case "<":
			return flag(l < r), nil
		case "<=":
			return flag(l <= r), nil
		case ">":
			return flag(l > r), nil
		case ">=":
			return flag(l >= r), nil
		}
		return 0, errorf("unknown operator %q", v.Op)
	case *ast.Call:
		return call(v, history)
	}
	return 0, errorf("unknown expression %T", e)
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// call evaluates the built-ins: ABS and the moving averages over an
// aggregate's history. SMA and WMA average the last n values (3 when n is
// not given), WMA weighting the i-th oldest of them by i; CMA averages the
// whole history; EWMA(x, α) folds e = α·v + (1-α)·e from the oldest value.
func call(c *ast.Call, history func(string) ([]float64, bool)) (float64, error) {
	arg := func(i int) (float64, error) {
		if i >= len(c.Args) {
			return 0, errorf("%s needs argument %d", c.Func, i+1)
		}
		return eval(c.Args[i], history)
	}
	series := func() ([]float64, error) {
		if len(c.Args) == 0 {
			return nil, errorf("%s needs an aggregate", c.Func)
		}
		ref, ok := c.Args[0].(*ast.VarRef)
		if !ok {
			return nil, errorf("%s needs an aggregate name first", c.Func)
		}
		s, ok := history(ref.Name)
		if !ok {
			return nil, errorf("unknown aggregate %q in %s", ref.Name, c.Func)
		}
		return s, nil
	}
	last := func(s []float64, n float64, weighted bool) float64 {
		k := int(n)
		if k <= 0 || len(s) == 0 {
			return 0
		}
		k = min(k, len(s))
		var sum, weights float64
		for i, v := range s[len(s)-k:] {
			w := 1.0
			if weighted {
				w = float64(i + 1)
			}
			sum += w * v
			weights += w
		}
		return sum / weights
	}
	switch c.Func {
	case "ABS":
		v, err := arg(0)
		return math.Abs(v), err
	case "SMA", "WMA":
		s, err := series()
		if err != nil {
			return 0, err
		}
		n, err := arg(1)
		if err != nil {
			n = 3
		}
		return last(s, n, c.Func == "WMA"), nil
	case "CMA":
		s, err := series()
		if err != nil {
			return 0, err
		}
		return last(s, float64(len(s)), false), nil
	case "EWMA":
		alpha, err := arg(1)
		if err != nil {
			return 0, err
		}
		s, err := series()
		if err != nil || len(s) == 0 {
			return 0, err
		}
		v := s[0]
		for _, x := range s[1:] {
			v = alpha*x + (1-alpha)*v
		}
		return v, nil
	}
	return 0, errorf("unknown function %q", c.Func)
}

// Answer is a query's reference result.
type Answer struct {
	Columns []string
	// Rows is the answer. For a sorted query it is in sort order; for an
	// anomaly query in window order. When top cuts a run of rows tied on
	// the sort keys, Rows is one admissible cut of ranked.
	Rows [][]string

	ranked  [][]string // every row before the top cut, when one was made
	keys    []int      // sort-key columns
	desc    bool
	ordered bool // Rows' order is part of the answer (anomaly queries)
}

func (a *Answer) less(x, y []string) bool {
	for _, k := range a.keys {
		c := compare(x[k], y[k])
		if c == 0 {
			continue
		}
		if a.desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Check reports how rows, in any order, differ from the answer. Where top
// cut a run of tied rows any choice among them is accepted, and a top
// without sort keys may pick any rows.
func (a *Answer) Check(columns []string, rows [][]string) error {
	if strings.Join(columns, "\x1f") != strings.Join(a.Columns, "\x1f") {
		return fmt.Errorf("columns %q, reference %q", columns, a.Columns)
	}
	if a.ranked == nil {
		return sameRows(rows, a.Rows)
	}
	if len(rows) != len(a.Rows) {
		return fmt.Errorf("%d rows, reference %d", len(rows), len(a.Rows))
	}
	pool := multiset(a.ranked)
	for _, r := range rows {
		k := strings.Join(r, "\x1f")
		if pool[k] == 0 {
			return fmt.Errorf("row %q is not in the reference answer", r)
		}
		pool[k]--
	}
	return sameRows(a.project(rows), a.project(a.Rows))
}

// CheckOrder reports whether rows come in the answer's order: sorted by
// the sort keys, and in the reference's exact order for anomaly queries.
func (a *Answer) CheckOrder(rows [][]string) error {
	if a.ordered {
		for i := range rows {
			if i >= len(a.Rows) || strings.Join(rows[i], "\x1f") != strings.Join(a.Rows[i], "\x1f") {
				return fmt.Errorf("row %d is %q out of order", i, rows[i])
			}
		}
		return nil
	}
	for i := 1; i < len(rows); i++ {
		if a.less(rows[i], rows[i-1]) {
			return fmt.Errorf("row %d %q sorts before row %d %q", i, rows[i], i-1, rows[i-1])
		}
	}
	return nil
}

// project keeps the sort-key columns of rows.
func (a *Answer) project(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, k := range a.keys {
			out[i] = append(out[i], r[k])
		}
	}
	return out
}

func multiset(rows [][]string) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[strings.Join(r, "\x1f")]++
	}
	return m
}

func sameRows(got, want [][]string) error {
	g, w := multiset(got), multiset(want)
	for k, n := range w {
		if g[k] < n {
			return fmt.Errorf("%d rows, reference %d: missing %q", len(got), len(want), strings.Split(k, "\x1f"))
		}
	}
	for k, n := range g {
		if w[k] < n {
			return fmt.Errorf("%d rows, reference %d: extra %q", len(got), len(want), strings.Split(k, "\x1f"))
		}
	}
	return nil
}
