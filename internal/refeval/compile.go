// Package refeval is the reference evaluator for AIQL: a direct reading of
// docs/QUERY_LANGUAGE.md that answers multievent, dependency and anomaly
// queries over a types.Dataset with nested loops.
//
// It shares no code with the engine, the predicate compiler or any storage
// backend. It has its own LIKE matcher, its own window and `with` temporal
// logic and its own sliding-window aggregation, so a backend held to it is
// checked against the language, not against another path through itself.
// Only the parser, the data model and the date-literal parsing are shared.
// It is written to be read, not to be fast: it is meant for datasets of a
// few tens of thousands of events.
package refeval

import (
	"fmt"
	"strconv"

	"aiql/internal/ast"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// window is a half-open time interval [from, to); an unset window places no
// constraint.
type window struct {
	set      bool
	from, to int64
}

func (w window) and(o window) window {
	if !w.set {
		return o
	}
	if !o.set {
		return w
	}
	return window{set: true, from: max(w.from, o.from), to: min(w.to, o.to)}
}

func (w window) holds(t int64) bool {
	return !w.set || (w.from <= t && t < w.to)
}

func literalWindow(l *ast.WindowLit) (window, error) {
	var w timeutil.Window
	var err error
	if l.At != "" {
		w, err = timeutil.AtWindow(l.At)
	} else {
		w, err = timeutil.FromToWindow(l.From, l.To)
	}
	if err != nil {
		return window{}, err
	}
	return window{set: true, from: w.From, to: w.To}, nil
}

// cstr is an attribute constraint together with the attribute its bare
// values name.
type cstr struct {
	expr ast.AttrExpr
	def  string
}

// pattern is one event pattern: an event whose subject and object entities,
// operation, attributes, host and start time satisfy the pattern.
type pattern struct {
	evtID             string
	subjType, objType types.EntityType
	subjCstr, objCstr []cstr
	evtCstr           []cstr
	ops               map[types.Op]bool
	win               window
	agents            []int
}

// col addresses one value of a bound pattern: an entity attribute or, with
// event set, an event attribute.
type col struct {
	pat   int
	obj   bool
	attr  string
	event bool
}

// attrRel is `a.x op b.y` between two entity variables.
type attrRel struct {
	a, b col
	op   string
}

// tempRel is a temporal relationship: for "before", pattern a's event
// precedes b's, at most hi ms later when hi > 0; for "within", the two
// events start at most hi ms apart when hi > 0.
type tempRel struct {
	a, b   int
	kind   string
	lo, hi int64
}

// item is one return column: a value or an aggregate over a value.
type item struct {
	name     string
	ref      *col
	fn       string // aggregate function, "" for a plain value
	distinct bool
}

type query struct {
	pats     []*pattern
	same     [][2]col // entity variable reuse: both columns name one entity
	attrs    []attrRel
	temps    []tempRel
	count    bool
	distinct bool
	items    []item
	groupBy  []col
	having   ast.Expr
	sortBy   []int
	desc     bool
	top      int
	win      window
	slide    bool
	length   int64
	step     int64
}

// occurrence is one place an entity variable appears.
type occurrence struct {
	pat int
	obj bool
	typ types.EntityType
}

type compiler struct {
	q       *query
	vars    map[string][]occurrence
	events  map[string]int
	globals []ast.AttrExpr
	agents  []int
}

func errorf(format string, args ...any) error {
	return fmt.Errorf("refeval: "+format, args...)
}

// compile resolves a parsed query: global constraints, the dependency path
// written as event patterns, entity variables, relationships and the
// result clauses.
func compile(src *ast.Query) (*query, error) {
	c := &compiler{q: &query{}, vars: map[string][]occurrence{}, events: map[string]int{}}
	q := c.q
	for i := range src.Globals {
		g := &src.Globals[i]
		switch {
		case g.Window != nil:
			w, err := literalWindow(g.Window)
			if err != nil {
				return nil, err
			}
			q.win = q.win.and(w)
		case g.Slide != nil:
			q.slide = true
			if g.Slide.Length > 0 {
				q.length = g.Slide.Length
			}
			if g.Slide.Step > 0 {
				q.step = g.Slide.Step
			}
		case g.Cstr != nil:
			if hosts, ok := hostList(g.Cstr); ok {
				c.agents = append(c.agents, hosts...)
			} else {
				c.globals = append(c.globals, g.Cstr)
			}
		}
	}
	if q.slide {
		if q.length <= 0 {
			return nil, errorf("sliding window declares a step but no length")
		}
		if q.step <= 0 {
			q.step = q.length
		}
	}

	body := src.Multi
	if src.Dep != nil {
		var err error
		if body, err = pathPatterns(src.Dep); err != nil {
			return nil, err
		}
	}
	if body == nil {
		return nil, errorf("query has no body")
	}
	for i, p := range body.Patterns {
		if err := c.pattern(i, p); err != nil {
			return nil, err
		}
	}
	for _, r := range body.Rels {
		if err := c.rel(r); err != nil {
			return nil, err
		}
	}
	// Reusing an entity variable in another pattern names the same entity.
	for name, occs := range c.vars {
		for _, o := range occs[1:] {
			if o.typ != occs[0].typ {
				return nil, errorf("entity %q is both %s and %s", name, occs[0].typ, o.typ)
			}
			if o.pat != occs[0].pat {
				q.same = append(q.same, [2]col{
					{pat: occs[0].pat, obj: occs[0].obj, attr: types.AttrID},
					{pat: o.pat, obj: o.obj, attr: types.AttrID},
				})
			}
		}
	}
	if err := c.results(body); err != nil {
		return nil, err
	}
	return q, nil
}

// hostList recognizes `agentid = n` and `agentid in (n, ...)`, the global
// constraints that name the hosts every pattern is restricted to.
func hostList(e ast.AttrExpr) ([]int, bool) {
	c, ok := e.(*ast.Cstr)
	if !ok || c.Attr != types.AttrAgentID {
		return nil, false
	}
	vals := c.Vals
	switch c.Op {
	case "=":
		vals = []string{c.Val}
	case "in":
	default:
		return nil, false
	}
	var out []int
	for _, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}

// pathPatterns writes a dependency path as event patterns: each step is one
// pattern whose subject is the entity the arrow leaves from, consecutive
// steps share their middle node, and forward (backward) paths order the
// events by ascending (descending) time. A node that reappears names the
// same entity; only its first appearance carries a constraint.
func pathPatterns(d *ast.Dependency) (*ast.MultiEvent, error) {
	if len(d.Nodes) != len(d.Edges)+1 {
		return nil, errorf("dependency path has %d nodes and %d edges", len(d.Nodes), len(d.Edges))
	}
	nodes := append([]ast.EntityRef(nil), d.Nodes...)
	for i := range nodes {
		if nodes[i].ID == "" {
			nodes[i].ID = fmt.Sprintf("_node%d", i)
		}
	}
	seen := map[string]bool{}
	first := func(n ast.EntityRef) ast.EntityRef {
		if seen[n.ID] {
			n.Cstr = nil
		}
		return n
	}
	m := &ast.MultiEvent{Return: d.Return, SortBy: d.SortBy, SortDesc: d.SortDesc, Top: d.Top}
	for i, e := range d.Edges {
		left, right := first(nodes[i]), first(nodes[i+1])
		seen[left.ID], seen[right.ID] = true, true
		subj, obj := left, right
		switch e.Dir {
		case "->":
		case "<-":
			subj, obj = right, left
		default:
			return nil, errorf("unknown edge direction %q", e.Dir)
		}
		if t, _ := types.ParseEntityType(subj.Type); t != types.EntityProcess {
			return nil, errorf("step %d: only processes perform operations, %q is a %s", i+1, subj.ID, subj.Type)
		}
		id := fmt.Sprintf("_step%d", i)
		m.Patterns = append(m.Patterns, &ast.EventPattern{Subj: subj, Op: e.Op, Obj: obj, EvtID: id})
		if i == 0 {
			continue
		}
		prev := fmt.Sprintf("_step%d", i-1)
		switch d.Direction {
		case "forward":
			m.Rels = append(m.Rels, &ast.TempRel{LEvt: prev, Kind: "before", REvt: id})
		case "backward":
			m.Rels = append(m.Rels, &ast.TempRel{LEvt: id, Kind: "before", REvt: prev})
		case "":
		default:
			return nil, errorf("unknown path direction %q", d.Direction)
		}
	}
	return m, nil
}

func (c *compiler) pattern(i int, src *ast.EventPattern) error {
	p := &pattern{evtID: src.EvtID, agents: c.agents, win: c.q.win}
	if p.evtID == "" {
		p.evtID = fmt.Sprintf("_evt%d", i)
	}
	if _, dup := c.events[p.evtID]; dup {
		return errorf("event id %q names two patterns", p.evtID)
	}
	c.events[p.evtID] = i

	var err error
	if p.subjType, p.subjCstr, err = c.entity(i, false, src.Subj); err != nil {
		return err
	}
	if p.subjType != types.EntityProcess {
		return errorf("pattern %d: the subject is a %s, not a process", i+1, p.subjType)
	}
	if p.objType, p.objCstr, err = c.entity(i, true, src.Obj); err != nil {
		return err
	}

	p.ops = map[types.Op]bool{}
	for o := types.OpRead; int(o) <= types.NumOps; o++ {
		ok, err := opHolds(src.Op, o)
		if err != nil {
			return err
		}
		p.ops[o] = ok
	}
	anyOp := false
	for _, ok := range p.ops {
		anyOp = anyOp || ok
	}
	if !anyOp {
		return errorf("pattern %d: operation %s matches no operation", i+1, src.Op)
	}

	if src.EvtCstr != nil {
		if err := needsNoDefault(src.EvtCstr); err != nil {
			return err
		}
		p.evtCstr = append(p.evtCstr, cstr{expr: src.EvtCstr})
	}
	// A global constraint applies to every pattern: to its event when it
	// only names event attributes, to its subject otherwise.
	for _, g := range c.globals {
		if err := needsNoDefault(g); err != nil {
			return err
		}
		if onlyEventAttrs(g) {
			p.evtCstr = append(p.evtCstr, cstr{expr: g})
		} else {
			p.subjCstr = append(p.subjCstr, cstr{expr: g})
		}
	}
	if src.Window != nil {
		w, err := literalWindow(src.Window)
		if err != nil {
			return err
		}
		p.win = p.win.and(w)
	}
	c.q.pats = append(c.q.pats, p)
	return nil
}

func (c *compiler) entity(pat int, obj bool, ref ast.EntityRef) (types.EntityType, []cstr, error) {
	t, ok := types.ParseEntityType(ref.Type)
	if !ok {
		return 0, nil, errorf("unknown entity type %q", ref.Type)
	}
	if ref.ID != "" {
		c.vars[ref.ID] = append(c.vars[ref.ID], occurrence{pat: pat, obj: obj, typ: t})
	}
	if ref.Cstr == nil {
		return t, nil, nil
	}
	return t, []cstr{{expr: ref.Cstr, def: t.DefaultAttr()}}, nil
}

// needsNoDefault rejects bare values where no entity names their attribute.
func needsNoDefault(e ast.AttrExpr) error {
	var err error
	ast.Walk(e, func(n ast.AttrExpr) {
		if c, ok := n.(*ast.Cstr); ok && c.Attr == "" && err == nil {
			err = errorf("bare value %q has no entity to name its attribute", c.Val)
		}
	})
	return err
}

var eventAttrs = map[string]bool{
	types.EvtAttrAmount: true, types.EvtAttrFailCode: true, types.EvtAttrOpType: true,
	types.EvtAttrAccess: true, types.EvtAttrSeq: true, types.EvtAttrStart: true, types.EvtAttrEnd: true,
}

func onlyEventAttrs(e ast.AttrExpr) bool {
	all := true
	ast.Walk(e, func(n ast.AttrExpr) {
		if c, ok := n.(*ast.Cstr); ok && !eventAttrs[c.Attr] {
			all = false
		}
	})
	return all
}

func opHolds(e ast.OpExpr, o types.Op) (bool, error) {
	switch v := e.(type) {
	case nil:
		return true, nil
	case *ast.OpName:
		want, ok := types.ParseOp(v.Name)
		if !ok {
			return false, errorf("unknown operation %q", v.Name)
		}
		return want == o, nil
	case *ast.NotOp:
		ok, err := opHolds(v.X, o)
		return !ok, err
	case *ast.BinOp:
		l, err := opHolds(v.L, o)
		if err != nil {
			return false, err
		}
		r, err := opHolds(v.R, o)
		if err != nil {
			return false, err
		}
		if v.Op == "&&" {
			return l && r, nil
		}
		return l || r, nil
	}
	return false, errorf("unknown operation node %T", e)
}

func (c *compiler) rel(r ast.Rel) error {
	switch v := r.(type) {
	case *ast.AttrRel:
		a, ok := c.vars[v.LID]
		if !ok {
			return errorf("unknown entity %q in relationship", v.LID)
		}
		b, ok := c.vars[v.RID]
		if !ok {
			return errorf("unknown entity %q in relationship", v.RID)
		}
		la, ra := v.LAttr, v.RAttr
		switch {
		case la == "" && ra == "":
			la, ra = types.AttrID, types.AttrID
		case la == "":
			la = ra
		case ra == "":
			ra = la
		}
		c.q.attrs = append(c.q.attrs, attrRel{
			a:  col{pat: a[0].pat, obj: a[0].obj, attr: la},
			b:  col{pat: b[0].pat, obj: b[0].obj, attr: ra},
			op: v.Op,
		})
		return nil
	case *ast.TempRel:
		a, ok := c.events[v.LEvt]
		if !ok {
			return errorf("unknown event %q in temporal relationship", v.LEvt)
		}
		b, ok := c.events[v.REvt]
		if !ok {
			return errorf("unknown event %q in temporal relationship", v.REvt)
		}
		t := tempRel{a: a, b: b, kind: v.Kind}
		if v.Lo != "" {
			var err error
			if t.lo, err = timeutil.ParseDuration(v.Lo, v.Unit); err != nil {
				return err
			}
			if t.hi, err = timeutil.ParseDuration(v.Hi, v.Unit); err != nil {
				return err
			}
			if t.hi < t.lo {
				return errorf("temporal range %s-%s is inverted", v.Lo, v.Hi)
			}
		}
		switch v.Kind {
		case "before", "within":
		case "after":
			t.a, t.b, t.kind = b, a, "before"
		default:
			return errorf("unknown temporal relationship %q", v.Kind)
		}
		c.q.temps = append(c.q.temps, t)
		return nil
	}
	return errorf("unknown relationship node %T", r)
}

// ref resolves `id` or `id.attr`: an entity variable, else an event id. A
// missing attribute is the entity type's default attribute, or the
// operation for an event.
func (c *compiler) ref(r *ast.Ref) (col, error) {
	if occs, ok := c.vars[r.ID]; ok {
		attr := r.Attr
		if attr == "" {
			attr = occs[0].typ.DefaultAttr()
		}
		return col{pat: occs[0].pat, obj: occs[0].obj, attr: attr}, nil
	}
	if pat, ok := c.events[r.ID]; ok {
		attr := r.Attr
		if attr == "" {
			attr = types.EvtAttrOpType
		}
		return col{pat: pat, attr: attr, event: true}, nil
	}
	return col{}, errorf("unknown reference %q", r.ID)
}

func (c *compiler) results(body *ast.MultiEvent) error {
	q := c.q
	if body.Return == nil || len(body.Return.Items) == 0 {
		return errorf("query has no return clause")
	}
	q.count, q.distinct = body.Return.Count, body.Return.Distinct
	aggregates := false
	for _, it := range body.Return.Items {
		out := item{name: it.As}
		if out.name == "" {
			out.name = it.Expr.String()
		}
		switch v := it.Expr.(type) {
		case *ast.Ref:
			cl, err := c.ref(v)
			if err != nil {
				return err
			}
			out.ref = &cl
		case *ast.Agg:
			arg, ok := v.Arg.(*ast.Ref)
			if !ok {
				return errorf("aggregate %s does not take a plain reference", v)
			}
			cl, err := c.ref(arg)
			if err != nil {
				return err
			}
			out.ref, out.fn, out.distinct = &cl, v.Func, v.Distinct
			aggregates = true
		default:
			return errorf("unknown return expression %T", it.Expr)
		}
		q.items = append(q.items, out)
	}
	for _, g := range body.GroupBy {
		r, ok := g.(*ast.Ref)
		if !ok {
			return errorf("group by %s is not a plain reference", g)
		}
		cl, err := c.ref(r)
		if err != nil {
			return err
		}
		q.groupBy = append(q.groupBy, cl)
	}
	q.having = body.Having
	for _, k := range body.SortBy {
		i, err := c.sortKey(k)
		if err != nil {
			return err
		}
		q.sortBy = append(q.sortBy, i)
	}
	q.desc, q.top = body.SortDesc, body.Top

	if q.slide {
		if !aggregates {
			return errorf("an anomaly query must return an aggregate")
		}
		if !q.win.set {
			return errorf("an anomaly query needs a bounded time window")
		}
	}
	if q.having != nil && !aggregates && !q.slide {
		return errorf("having needs an aggregate")
	}
	return nil
}

// sortKey finds the return column a sort key names: by name (the last
// column of that name when the key has no attribute), then by the column its
// reference resolves to.
func (c *compiler) sortKey(k ast.SortKey) (int, error) {
	want := k.String()
	if k.Attr == "" {
		for i := len(c.q.items) - 1; i >= 0; i-- {
			if c.q.items[i].name == k.Name {
				return i, nil
			}
		}
	}
	for i, it := range c.q.items {
		if it.name == want || it.name == k.Name {
			return i, nil
		}
	}
	cl, err := c.ref(&ast.Ref{ID: k.Name, Attr: k.Attr})
	if err == nil {
		for i, it := range c.q.items {
			if it.fn == "" && *it.ref == cl {
				return i, nil
			}
		}
	}
	return 0, errorf("sort key %q names no returned column", want)
}
