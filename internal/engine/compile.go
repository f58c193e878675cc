// Package engine implements the AIQL query execution engine (paper Sec. 5):
// query-context compilation, per-pattern data query synthesis, the
// relationship-based scheduler of Algorithm 1 plus the fetch-and-filter and
// one-big-join baselines, temporal parallelization, dependency query
// rewriting, and the sliding-window anomaly executor.
package engine

import (
	"fmt"
	"strconv"
	"strings"

	"aiql/internal/ast"
	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// CompileError reports a semantic error found while compiling a parsed
// query into an executable plan.
type CompileError struct {
	Pos ast.Pos
	Msg string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("aiql:%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

func cerrf(pos ast.Pos, format string, args ...any) error {
	return &CompileError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Side identifies the subject or object position of an event pattern.
type Side uint8

const (
	SideSubject Side = iota
	SideObject
)

func (s Side) String() string {
	if s == SideSubject {
		return "subject"
	}
	return "object"
}

// EntitySpec is the compiled form of an <entity> reference.
type EntitySpec struct {
	Type types.EntityType
	ID   string // variable name; synthesized when the query omitted it
	Pred pred.Pred
}

// PatternPlan is the compiled form of one event pattern — the unit from
// which the engine synthesizes data queries (paper Fig. 3).
type PatternPlan struct {
	Idx     int
	EvtID   string
	Subj    EntitySpec
	Obj     EntitySpec
	Ops     types.OpSet
	EvtPred pred.Pred
	Window  timeutil.Window
	Agents  []int
	// Score is the pruning score: the number of constraints the pattern
	// carries (Algorithm 1, step 1).
	Score int
}

// JoinKind distinguishes attribute from temporal relationships.
type JoinKind uint8

const (
	JoinAttr JoinKind = iota
	JoinTemporal
)

// Join is a compiled relationship between two patterns.
type Join struct {
	Kind JoinKind
	A, B int // pattern indexes

	// Attribute relationship: value of A-side attr OP B-side attr.
	ASide Side
	AAttr string
	Op    pred.CmpOp
	BSide Side
	BAttr string

	// Temporal relationship: tB - tA must lie in [LoMs, HiMs] for
	// "before" (A before B); "within" bounds |tB - tA| <= HiMs.
	TempKind string // "before" | "within" ("after" is normalized to before)
	LoMs     int64
	HiMs     int64 // 0 means unbounded for before/after
}

// ReturnSpec is the compiled return clause.
type ReturnSpec struct {
	Count    bool
	Distinct bool
	Items    []ReturnItem
}

// ReturnItem is one compiled result column.
type ReturnItem struct {
	Name string // output column name (alias or rendered expression)
	Ref  *ColRef
	Agg  *AggSpec
}

// ColRef projects an attribute of a pattern's entity or event.
type ColRef struct {
	Pattern int
	Side    Side
	Attr    string
	IsEvent bool // reference to the event itself (evt1.optype)
}

// AggSpec is a compiled aggregation.
type AggSpec struct {
	Func     string // count, avg, sum, min, max
	Distinct bool
	Arg      *ColRef // nil for count(*) style
}

// numeric reports whether the aggregate folds its values as numbers.
func (a *AggSpec) numeric() bool {
	switch a.Func {
	case "sum", "avg", "min", "max":
		return true
	}
	return false
}

// SlideSpec is the compiled sliding window.
type SlideSpec struct {
	Length int64
	Step   int64
}

// Plan is the compiled, executable form of an AIQL query — the "query
// context" of the paper's architecture (Fig. 2).
type Plan struct {
	Patterns []*PatternPlan
	Joins    []Join
	Return   ReturnSpec
	GroupBy  []*ColRef
	Having   ast.Expr
	SortBy   []int // indexes into Return.Items
	SortDesc bool
	Top      int
	Slide    *SlideSpec
	Window   timeutil.Window
	Agents   []int

	// entityVars maps each entity variable to its occurrences, used by
	// projection and by the implicit joins from entity-ID reuse.
	entityVars map[string][]varOcc
	evtVars    map[string]int // event id -> pattern index
	aliases    map[string]int // return alias -> item index
}

type varOcc struct {
	pattern int
	side    Side
	typ     types.EntityType
}

// Compile lowers a parsed query to a plan, applying AIQL's context-aware
// syntax shortcuts: attribute inference, optional IDs, and entity-ID reuse
// (paper Sec. 4.1). Dependency queries are first rewritten to multievent
// form (paper Sec. 5.1).
func Compile(q *ast.Query) (*Plan, error) {
	multi := q.Multi
	if q.Dep != nil {
		var err error
		multi, err = RewriteDependency(q.Dep)
		if err != nil {
			return nil, err
		}
	}
	if multi == nil {
		return nil, fmt.Errorf("aiql: query has no body")
	}

	p := &Plan{
		entityVars: make(map[string][]varOcc),
		evtVars:    make(map[string]int),
		aliases:    make(map[string]int),
	}

	// Globals: agent constraints, window, sliding window.
	var slide SlideSpec
	var globalCstrs []ast.AttrExpr
	for i := range q.Globals {
		g := &q.Globals[i]
		switch {
		case g.Window != nil:
			w, err := resolveWindow(g.Window)
			if err != nil {
				return nil, err
			}
			p.Window = p.Window.Intersect(w)
		case g.Slide != nil:
			if g.Slide.Length > 0 {
				slide.Length = g.Slide.Length
			}
			if g.Slide.Step > 0 {
				slide.Step = g.Slide.Step
			}
		case g.Cstr != nil:
			if ag, ok := agentConstraint(g.Cstr); ok {
				p.Agents = append(p.Agents, ag...)
			} else {
				globalCstrs = append(globalCstrs, g.Cstr)
			}
		}
	}
	if slide.Length > 0 || slide.Step > 0 {
		if slide.Length <= 0 {
			return nil, fmt.Errorf("aiql: sliding window declares step but no window length")
		}
		if slide.Step <= 0 {
			slide.Step = slide.Length
		}
		p.Slide = &slide
	}

	// Patterns.
	for i, patt := range multi.Patterns {
		pp, err := p.compilePattern(i, patt, globalCstrs)
		if err != nil {
			return nil, err
		}
		p.Patterns = append(p.Patterns, pp)
	}

	// Explicit relationships.
	for _, rel := range multi.Rels {
		j, err := p.compileRel(rel)
		if err != nil {
			return nil, err
		}
		p.Joins = append(p.Joins, j)
	}

	// Entity-ID reuse: every pair of occurrences of the same entity
	// variable in different patterns is an implicit id-equality join.
	for id, occs := range p.entityVars {
		for i := 1; i < len(occs); i++ {
			a, b := occs[0], occs[i]
			if a.typ != b.typ {
				return nil, fmt.Errorf("aiql: entity %q used as both %s and %s", id, a.typ, b.typ)
			}
			if a.pattern == b.pattern {
				continue
			}
			p.Joins = append(p.Joins, Join{
				Kind: JoinAttr, A: a.pattern, B: b.pattern,
				ASide: a.side, AAttr: types.AttrID, Op: pred.CmpEq,
				BSide: b.side, BAttr: types.AttrID,
			})
		}
	}

	// Return clause.
	if multi.Return == nil || len(multi.Return.Items) == 0 {
		return nil, fmt.Errorf("aiql: query has no return clause")
	}
	p.Return.Count = multi.Return.Count
	p.Return.Distinct = multi.Return.Distinct
	for _, item := range multi.Return.Items {
		ri, err := p.compileReturnItem(item)
		if err != nil {
			return nil, err
		}
		if ri.Name != "" {
			p.aliases[ri.Name] = len(p.Return.Items)
		}
		p.Return.Items = append(p.Return.Items, ri)
	}

	// Group by.
	for _, g := range multi.GroupBy {
		ref, ok := g.(*ast.Ref)
		if !ok {
			return nil, fmt.Errorf("aiql: group by expects a plain reference, found %s", g)
		}
		cr, err := p.resolveRef(ref)
		if err != nil {
			return nil, err
		}
		p.GroupBy = append(p.GroupBy, cr)
	}
	p.Having = multi.Having

	// Sort keys refer to return items by alias or by reference text.
	for _, key := range multi.SortBy {
		idx, err := p.resolveSortKey(key)
		if err != nil {
			return nil, err
		}
		p.SortBy = append(p.SortBy, idx)
	}
	p.SortDesc = multi.SortDesc
	p.Top = multi.Top

	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) validate() error {
	hasAgg := false
	for i := range p.Return.Items {
		if p.Return.Items[i].Agg != nil {
			hasAgg = true
		}
	}
	if p.Slide != nil {
		if !hasAgg {
			return fmt.Errorf("aiql: anomaly query declares a sliding window but returns no aggregate")
		}
		if p.Window.Unbounded() {
			return fmt.Errorf("aiql: anomaly query requires a bounded time window")
		}
	}
	if p.Having != nil && !hasAgg && p.Slide == nil {
		return fmt.Errorf("aiql: having clause requires aggregation")
	}
	return nil
}

func resolveWindow(w *ast.WindowLit) (timeutil.Window, error) {
	if w.At != "" {
		return timeutil.AtWindow(w.At)
	}
	return timeutil.FromToWindow(w.From, w.To)
}

// agentConstraint recognizes global agentid constraints and extracts the
// agent list they allow.
func agentConstraint(e ast.AttrExpr) ([]int, bool) {
	c, ok := e.(*ast.Cstr)
	if !ok || c.Attr != types.AttrAgentID {
		return nil, false
	}
	switch c.Op {
	case "=":
		if n, err := strconv.Atoi(c.Val); err == nil {
			return []int{n}, true
		}
	case "in":
		var out []int
		for _, v := range c.Vals {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, false
			}
			out = append(out, n)
		}
		return out, true
	}
	return nil, false
}

func (p *Plan) compilePattern(idx int, patt *ast.EventPattern, globals []ast.AttrExpr) (*PatternPlan, error) {
	pp := &PatternPlan{Idx: idx, EvtID: patt.EvtID}
	if pp.EvtID == "" {
		pp.EvtID = fmt.Sprintf("_evt%d", idx)
	}
	if prev, dup := p.evtVars[pp.EvtID]; dup {
		return nil, cerrf(patt.Pos, "event id %q already names pattern %d", pp.EvtID, prev+1)
	}
	p.evtVars[pp.EvtID] = idx

	subj, err := p.compileEntity(idx, SideSubject, patt.Subj)
	if err != nil {
		return nil, err
	}
	obj, err := p.compileEntity(idx, SideObject, patt.Obj)
	if err != nil {
		return nil, err
	}
	pp.Subj, pp.Obj = subj, obj

	ops, err := compileOpExpr(patt.Op)
	if err != nil {
		return nil, err
	}
	if ops.Empty() {
		return nil, cerrf(patt.Pos, "operation expression %s matches no operation", patt.Op)
	}
	pp.Ops = ops

	if patt.EvtCstr != nil {
		ep, err := compileAttrExpr(patt.EvtCstr, "")
		if err != nil {
			return nil, err
		}
		pp.EvtPred = ep
	}
	// Global non-agent constraints apply to every pattern; they constrain
	// the event when the attribute is an event attribute, else the subject.
	for _, g := range globals {
		gp, err := compileAttrExpr(g, "")
		if err != nil {
			return nil, err
		}
		if isEventAttrExpr(g) {
			pp.EvtPred = pred.AndOf(pp.EvtPred, gp)
		} else {
			pp.Subj.Pred = pred.AndOf(pp.Subj.Pred, gp)
		}
	}

	pp.Window = p.Window
	if patt.Window != nil {
		w, err := resolveWindow(patt.Window)
		if err != nil {
			return nil, err
		}
		pp.Window = pp.Window.Intersect(w)
	}
	pp.Agents = p.Agents
	pp.Score = p.scorePattern(pp)
	return pp, nil
}

// scorePattern counts the constraints a pattern carries (Algorithm 1 step 1
// approximates pruning power by constraint count).
func (p *Plan) scorePattern(pp *PatternPlan) int {
	score := 0
	if pp.Subj.Pred != nil {
		score += pp.Subj.Pred.ConstraintCount()
	}
	if pp.Obj.Pred != nil {
		score += pp.Obj.Pred.ConstraintCount()
	}
	if pp.EvtPred != nil {
		score += pp.EvtPred.ConstraintCount()
	}
	if pp.Ops != types.AllOps() {
		score++
	}
	if !pp.Window.Unbounded() {
		score++
	}
	if len(pp.Agents) > 0 {
		score++
	}
	return score
}

func (p *Plan) compileEntity(patIdx int, side Side, ref ast.EntityRef) (EntitySpec, error) {
	et, ok := types.ParseEntityType(ref.Type)
	if !ok {
		return EntitySpec{}, cerrf(ref.Pos, "unknown entity type %q", ref.Type)
	}
	if side == SideSubject && et != types.EntityProcess {
		return EntitySpec{}, cerrf(ref.Pos, "event subjects must be processes, found %s", et)
	}
	spec := EntitySpec{Type: et, ID: ref.ID}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("_e%d%c", patIdx, "so"[side])
	} else {
		p.entityVars[spec.ID] = append(p.entityVars[spec.ID], varOcc{pattern: patIdx, side: side, typ: et})
	}
	if ref.Cstr != nil {
		pr, err := compileAttrExpr(ref.Cstr, et.DefaultAttr())
		if err != nil {
			return EntitySpec{}, err
		}
		spec.Pred = pr
	}
	return spec, nil
}

// compileAttrExpr lowers an attribute expression to a predicate; defaultAttr
// substitutes for the bare-value shortcut (empty attr names).
func compileAttrExpr(e ast.AttrExpr, defaultAttr string) (pred.Pred, error) {
	switch v := e.(type) {
	case *ast.Cstr:
		attr := v.Attr
		if attr == "" {
			if defaultAttr == "" {
				return nil, cerrf(v.Pos, "bare value %q needs an entity context to infer its attribute", v.Val)
			}
			attr = defaultAttr
		}
		op, err := cmpOpOf(v.Op)
		if err != nil {
			return nil, cerrf(v.Pos, "%v", err)
		}
		if op == pred.CmpIn || op == pred.CmpNotIn {
			return pred.NewCond(attr, op, "", v.Vals...), nil
		}
		return pred.NewCond(attr, op, v.Val), nil
	case *ast.NotAttr:
		x, err := compileAttrExpr(v.X, defaultAttr)
		if err != nil {
			return nil, err
		}
		return &pred.Not{X: x}, nil
	case *ast.BinAttr:
		l, err := compileAttrExpr(v.L, defaultAttr)
		if err != nil {
			return nil, err
		}
		r, err := compileAttrExpr(v.R, defaultAttr)
		if err != nil {
			return nil, err
		}
		if v.Op == "&&" {
			return pred.AndOf(l, r), nil
		}
		return &pred.Or{Xs: []pred.Pred{l, r}}, nil
	}
	return nil, fmt.Errorf("aiql: unsupported constraint node %T", e)
}

func cmpOpOf(op string) (pred.CmpOp, error) {
	switch op {
	case "=":
		return pred.CmpEq, nil
	case "!=":
		return pred.CmpNe, nil
	case "<":
		return pred.CmpLt, nil
	case "<=":
		return pred.CmpLe, nil
	case ">":
		return pred.CmpGt, nil
	case ">=":
		return pred.CmpGe, nil
	case "in":
		return pred.CmpIn, nil
	case "notin":
		return pred.CmpNotIn, nil
	}
	return 0, fmt.Errorf("unknown comparison operator %q", op)
}

// isEventAttrExpr reports whether every constrained attribute in the
// expression is an event attribute.
func isEventAttrExpr(e ast.AttrExpr) bool {
	all := true
	ast.Walk(e, func(n ast.AttrExpr) {
		if c, ok := n.(*ast.Cstr); ok {
			switch c.Attr {
			case types.EvtAttrAmount, types.EvtAttrFailCode, types.EvtAttrOpType,
				types.EvtAttrAccess, types.EvtAttrSeq, types.EvtAttrStart, types.EvtAttrEnd:
			default:
				all = false
			}
		}
	})
	return all
}

// compileOpExpr evaluates the operation expression against each operation
// in the universe, producing the set of matching operations.
func compileOpExpr(e ast.OpExpr) (types.OpSet, error) {
	if e == nil {
		return types.AllOps(), nil
	}
	var set types.OpSet
	for _, o := range types.AllOps().Ops() {
		ok, err := opMatches(e, o)
		if err != nil {
			return 0, err
		}
		if ok {
			set = set.Add(o)
		}
	}
	return set, nil
}

func opMatches(e ast.OpExpr, o types.Op) (bool, error) {
	switch v := e.(type) {
	case *ast.OpName:
		want, ok := types.ParseOp(v.Name)
		if !ok {
			return false, cerrf(v.Pos, "unknown operation %q", v.Name)
		}
		return want == o, nil
	case *ast.NotOp:
		ok, err := opMatches(v.X, o)
		return !ok, err
	case *ast.BinOp:
		l, err := opMatches(v.L, o)
		if err != nil {
			return false, err
		}
		r, err := opMatches(v.R, o)
		if err != nil {
			return false, err
		}
		if v.Op == "&&" {
			return l && r, nil
		}
		return l || r, nil
	}
	return false, fmt.Errorf("aiql: unsupported operation node %T", e)
}

func (p *Plan) compileRel(rel ast.Rel) (Join, error) {
	switch v := rel.(type) {
	case *ast.AttrRel:
		return p.compileAttrRel(v)
	case *ast.TempRel:
		return p.compileTempRel(v)
	}
	return Join{}, fmt.Errorf("aiql: unsupported relationship node %T", rel)
}

func (p *Plan) compileAttrRel(r *ast.AttrRel) (Join, error) {
	aOcc, ok := p.firstOcc(r.LID)
	if !ok {
		return Join{}, cerrf(r.Pos, "unknown entity id %q in relationship", r.LID)
	}
	bOcc, ok := p.firstOcc(r.RID)
	if !ok {
		return Join{}, cerrf(r.Pos, "unknown entity id %q in relationship", r.RID)
	}
	// Attribute inference: bare p1 = p3 compares entity ids.
	la, ra := r.LAttr, r.RAttr
	if la == "" && ra == "" {
		la, ra = types.AttrID, types.AttrID
	} else if la == "" {
		la = ra
	} else if ra == "" {
		ra = la
	}
	op, err := cmpOpOf(r.Op)
	if err != nil {
		return Join{}, cerrf(r.Pos, "%v", err)
	}
	return Join{
		Kind: JoinAttr, A: aOcc.pattern, B: bOcc.pattern,
		ASide: aOcc.side, AAttr: la, Op: op,
		BSide: bOcc.side, BAttr: ra,
	}, nil
}

func (p *Plan) compileTempRel(r *ast.TempRel) (Join, error) {
	ai, ok := p.evtVars[r.LEvt]
	if !ok {
		return Join{}, cerrf(r.Pos, "unknown event id %q in temporal relationship", r.LEvt)
	}
	bi, ok := p.evtVars[r.REvt]
	if !ok {
		return Join{}, cerrf(r.Pos, "unknown event id %q in temporal relationship", r.REvt)
	}
	var lo, hi int64
	if r.Lo != "" {
		var err error
		lo, err = timeutil.ParseDuration(r.Lo, r.Unit)
		if err != nil {
			return Join{}, cerrf(r.Pos, "%v", err)
		}
		hi, err = timeutil.ParseDuration(r.Hi, r.Unit)
		if err != nil {
			return Join{}, cerrf(r.Pos, "%v", err)
		}
		if hi < lo {
			return Join{}, cerrf(r.Pos, "temporal range %s-%s is inverted", r.Lo, r.Hi)
		}
	}
	j := Join{Kind: JoinTemporal, LoMs: lo, HiMs: hi}
	switch r.Kind {
	case "before":
		j.A, j.B, j.TempKind = ai, bi, "before"
	case "after":
		// "evtA after evtB" normalizes to "evtB before evtA".
		j.A, j.B, j.TempKind = bi, ai, "before"
	case "within":
		j.A, j.B, j.TempKind = ai, bi, "within"
	default:
		return Join{}, cerrf(r.Pos, "unknown temporal relationship %q", r.Kind)
	}
	return j, nil
}

func (p *Plan) firstOcc(id string) (varOcc, bool) {
	occs, ok := p.entityVars[id]
	if !ok || len(occs) == 0 {
		return varOcc{}, false
	}
	return occs[0], true
}

func (p *Plan) compileReturnItem(item ast.ReturnItem) (ReturnItem, error) {
	switch v := item.Expr.(type) {
	case *ast.Ref:
		cr, err := p.resolveRef(v)
		if err != nil {
			return ReturnItem{}, err
		}
		name := item.As
		if name == "" {
			name = v.String()
		}
		return ReturnItem{Name: name, Ref: cr}, nil
	case *ast.Agg:
		spec := &AggSpec{Func: v.Func, Distinct: v.Distinct}
		if ref, ok := v.Arg.(*ast.Ref); ok {
			cr, err := p.resolveRef(ref)
			if err != nil {
				return ReturnItem{}, err
			}
			spec.Arg = cr
		} else {
			return ReturnItem{}, cerrf(v.Pos, "nested aggregates are not supported")
		}
		name := item.As
		if name == "" {
			name = v.String()
		}
		return ReturnItem{Name: name, Agg: spec}, nil
	}
	return ReturnItem{}, fmt.Errorf("aiql: unsupported return expression %T", item.Expr)
}

// resolveRef maps an id[.attr] reference to a pattern column, applying the
// default-attribute inference when the attribute is omitted.
func (p *Plan) resolveRef(r *ast.Ref) (*ColRef, error) {
	if occ, ok := p.firstOcc(r.ID); ok {
		attr := r.Attr
		if attr == "" {
			typ := occ.typ
			attr = typ.DefaultAttr()
		}
		return &ColRef{Pattern: occ.pattern, Side: occ.side, Attr: attr}, nil
	}
	if pi, ok := p.evtVars[r.ID]; ok {
		attr := r.Attr
		if attr == "" {
			attr = types.EvtAttrOpType
		}
		return &ColRef{Pattern: pi, Attr: attr, IsEvent: true}, nil
	}
	return nil, cerrf(r.Pos, "unknown reference %q in return/group clause", r.ID)
}

func (p *Plan) resolveSortKey(key ast.SortKey) (int, error) {
	// By alias first.
	if idx, ok := p.aliases[key.Name]; ok && key.Attr == "" {
		return idx, nil
	}
	// By matching rendered reference.
	want := key.Name
	if key.Attr != "" {
		want += "." + key.Attr
	}
	for i := range p.Return.Items {
		if p.Return.Items[i].Name == want || p.Return.Items[i].Name == key.Name {
			return i, nil
		}
	}
	// By resolving to the same column as a return item.
	cr, err := p.resolveRef(&ast.Ref{ID: key.Name, Attr: key.Attr})
	if err != nil {
		return 0, fmt.Errorf("aiql: sort key %q does not match any returned column", key)
	}
	for i := range p.Return.Items {
		ri := p.Return.Items[i].Ref
		if ri != nil && *ri == *cr {
			return i, nil
		}
	}
	return 0, fmt.Errorf("aiql: sort key %q does not match any returned column", key)
}

// Columns returns the output column names.
func (p *Plan) Columns() []string {
	if p.Return.Count {
		return []string{"count"}
	}
	out := make([]string, len(p.Return.Items))
	for i := range p.Return.Items {
		out[i] = p.Return.Items[i].Name
	}
	return out
}

// HasAggregation reports whether the return clause aggregates.
func (p *Plan) HasAggregation() bool {
	for i := range p.Return.Items {
		if p.Return.Items[i].Agg != nil {
			return true
		}
	}
	return false
}

// PatternByEvtID returns the pattern index for an event id.
func (p *Plan) PatternByEvtID(id string) (int, bool) {
	i, ok := p.evtVars[id]
	return i, ok
}

// String renders a plan summary for debugging and error reports.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d patterns, %d joins", len(p.Patterns), len(p.Joins))
	if p.Slide != nil {
		fmt.Fprintf(&b, ", sliding window %dms/%dms", p.Slide.Length, p.Slide.Step)
	}
	for _, pp := range p.Patterns {
		fmt.Fprintf(&b, "\n  [%d] %s %s %s (score %d)", pp.Idx, pp.Subj.ID, pp.Ops, pp.Obj.ID, pp.Score)
	}
	return b.String()
}
