// Package pred implements compiled boolean predicates over entity and event
// attributes. The AIQL parser produces attribute-constraint expression trees
// (Grammar 1 <attr_cstr>); the engine compiles them into Pred values that the
// storage engines evaluate during scans, and mines them for exact-match keys
// that can be served from hash indexes instead.
package pred

import (
	"fmt"
	"strconv"
	"strings"

	"aiql/internal/types"
)

// CmpOp enumerates the comparison operators of <cstr>.
type CmpOp uint8

const (
	CmpEq    CmpOp = iota // =, also LIKE when the value carries % wildcards
	CmpNe                 // !=
	CmpLt                 // <
	CmpLe                 // <=
	CmpGt                 // >
	CmpGe                 // >=
	CmpIn                 // in (v1, v2, ...)
	CmpNotIn              // not in (...)
)

// String renders the operator in AIQL syntax.
func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpIn:
		return "in"
	case CmpNotIn:
		return "not in"
	default:
		return "?"
	}
}

// Attributed is any value exposing named string attributes; both
// *types.Entity and *types.Event satisfy it.
type Attributed interface {
	Attr(key string) (string, bool)
}

// Pred is a compiled predicate.
type Pred interface {
	// Eval reports whether the subject satisfies the predicate.
	Eval(a Attributed) bool
	// ConstraintCount returns the number of atomic constraints in the
	// predicate; the scheduler uses it to estimate pruning power.
	ConstraintCount() int
	// String renders the predicate in AIQL-like syntax.
	String() string
}

// True is the vacuous predicate matching everything.
var True Pred = truePred{}

type truePred struct{}

func (truePred) Eval(Attributed) bool { return true }
func (truePred) ConstraintCount() int { return 0 }
func (truePred) String() string       { return "true" }

// Cond is an atomic comparison: attr op value. Values are strings; when both
// sides parse as numbers the comparison is numeric, otherwise lexical.
// An equality whose value contains '%' is a SQL-LIKE style pattern match.
type Cond struct {
	Attr string
	Op   CmpOp
	Val  string
	Vals []string // for CmpIn / CmpNotIn

	// pattern is the pre-split LIKE pattern when Op is CmpEq/CmpNe and Val
	// contains wildcards; nil otherwise.
	pattern *likePattern
	// numVal caches the parsed numeric value for ordered comparisons.
	numVal   float64
	numValOK bool
}

// NewCond builds an atomic condition, pre-compiling LIKE patterns and
// numeric literals.
func NewCond(attr string, op CmpOp, val string, vals ...string) *Cond {
	c := &Cond{Attr: attr, Op: op, Val: val, Vals: vals}
	if (op == CmpEq || op == CmpNe) && strings.ContainsRune(val, '%') {
		c.pattern = compileLike(val)
	}
	if n, err := strconv.ParseFloat(val, 64); err == nil {
		c.numVal, c.numValOK = n, true
	}
	return c
}

// Eval implements Pred.
func (c *Cond) Eval(a Attributed) bool {
	got, ok := a.Attr(c.Attr)
	if !ok {
		// A missing attribute satisfies only negative comparisons.
		return c.Op == CmpNe || c.Op == CmpNotIn
	}
	switch c.Op {
	case CmpEq:
		return c.match(got)
	case CmpNe:
		return !c.match(got)
	case CmpIn:
		return c.inList(got)
	case CmpNotIn:
		return !c.inList(got)
	default:
		return c.ordered(got)
	}
}

func (c *Cond) match(got string) bool {
	if c.pattern != nil {
		return c.pattern.match(got)
	}
	return got == c.Val
}

func (c *Cond) inList(got string) bool {
	for _, v := range c.Vals {
		if strings.ContainsRune(v, '%') {
			if compileLike(v).match(got) {
				return true
			}
		} else if got == v {
			return true
		}
	}
	return false
}

func (c *Cond) ordered(got string) bool {
	var cmp int
	if c.numValOK {
		if gn, err := strconv.ParseFloat(got, 64); err == nil {
			switch {
			case gn < c.numVal:
				cmp = -1
			case gn > c.numVal:
				cmp = 1
			}
			return orderedResult(c.Op, cmp)
		}
	}
	cmp = strings.Compare(got, c.Val)
	return orderedResult(c.Op, cmp)
}

func orderedResult(op CmpOp, cmp int) bool {
	switch op {
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	default:
		return false
	}
}

// ConstraintCount implements Pred.
func (c *Cond) ConstraintCount() int { return 1 }

// String implements Pred.
func (c *Cond) String() string {
	switch c.Op {
	case CmpIn, CmpNotIn:
		return fmt.Sprintf("%s %s (%s)", c.Attr, c.Op, strings.Join(c.Vals, ", "))
	default:
		return fmt.Sprintf("%s %s %q", c.Attr, c.Op, c.Val)
	}
}

// Not negates a predicate.
type Not struct{ X Pred }

// Eval implements Pred.
func (n *Not) Eval(a Attributed) bool { return !n.X.Eval(a) }

// ConstraintCount implements Pred.
func (n *Not) ConstraintCount() int { return n.X.ConstraintCount() }

// String implements Pred.
func (n *Not) String() string { return "!(" + n.X.String() + ")" }

// And is the conjunction of its children.
type And struct{ Xs []Pred }

// Eval implements Pred.
func (n *And) Eval(a Attributed) bool {
	for _, x := range n.Xs {
		if !x.Eval(a) {
			return false
		}
	}
	return true
}

// ConstraintCount implements Pred.
func (n *And) ConstraintCount() int {
	total := 0
	for _, x := range n.Xs {
		total += x.ConstraintCount()
	}
	return total
}

// String implements Pred.
func (n *And) String() string { return joinPreds(n.Xs, " && ") }

// Or is the disjunction of its children.
type Or struct{ Xs []Pred }

// Eval implements Pred.
func (n *Or) Eval(a Attributed) bool {
	for _, x := range n.Xs {
		if x.Eval(a) {
			return true
		}
	}
	return len(n.Xs) == 0
}

// ConstraintCount implements Pred.
func (n *Or) ConstraintCount() int {
	total := 0
	for _, x := range n.Xs {
		total += x.ConstraintCount()
	}
	return total
}

// String implements Pred.
func (n *Or) String() string { return joinPreds(n.Xs, " || ") }

func joinPreds(xs []Pred, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// AndOf conjoins predicates, flattening nested Ands and dropping True.
func AndOf(xs ...Pred) Pred {
	var flat []Pred
	for _, x := range xs {
		switch v := x.(type) {
		case nil:
		case truePred:
		case *And:
			flat = append(flat, v.Xs...)
		default:
			flat = append(flat, x)
		}
	}
	switch len(flat) {
	case 0:
		return True
	case 1:
		return flat[0]
	}
	return &And{Xs: flat}
}

// IndexKey is an exact attribute equality that a hash index can serve.
type IndexKey struct {
	Attr string
	Vals []string // any-of; a single value for plain equality
}

// IndexableKeys mines a predicate for equality constraints that are
// guaranteed necessary conditions of the whole predicate (i.e., appear at
// the top level of a conjunction and carry no wildcards). The storage layer
// uses the most selective one to replace a scan with an index probe.
func IndexableKeys(p Pred) []IndexKey {
	var keys []IndexKey
	collectKeys(p, &keys)
	return keys
}

func collectKeys(p Pred, out *[]IndexKey) {
	switch v := p.(type) {
	case *Cond:
		switch v.Op {
		case CmpEq:
			if v.pattern == nil {
				*out = append(*out, IndexKey{Attr: v.Attr, Vals: []string{v.Val}})
			}
		case CmpIn:
			for _, val := range v.Vals {
				if strings.ContainsRune(val, '%') {
					return
				}
			}
			*out = append(*out, IndexKey{Attr: v.Attr, Vals: v.Vals})
		}
	case *And:
		for _, x := range v.Xs {
			collectKeys(x, out)
		}
	}
}

// Project returns the part of p over attr alone that every subject
// satisfying p also satisfies, and false when there is none. It keeps only
// comparisons on attr that a missing attribute fails (=, LIKE, in and the
// ordered ones), so a subject passing the projection carries attr: an And
// keeps its projecting conjuncts, an Or projects only if every disjunct
// does, and Not, != and not in never project. When nothing was dropped the
// projection is p itself, so a caller can tell an exact projection by
// identity. Storage evaluates the projection once per distinct indexed
// value instead of once per entity.
func Project(p Pred, attr string) (Pred, bool) {
	switch v := p.(type) {
	case *Cond:
		if v.Attr != attr || v.Op == CmpNe || v.Op == CmpNotIn {
			return nil, false
		}
		return v, true
	case *And:
		kept := make([]Pred, 0, len(v.Xs))
		same := true
		for _, x := range v.Xs {
			px, ok := Project(x, attr)
			if ok {
				kept = append(kept, px)
			}
			same = same && ok && px == x
		}
		switch {
		case len(kept) == 0:
			return nil, false
		case same:
			return v, true
		case len(kept) == 1:
			return kept[0], true
		}
		return &And{Xs: kept}, true
	case *Or:
		if len(v.Xs) == 0 {
			return nil, false
		}
		kept := make([]Pred, len(v.Xs))
		same := true
		for i, x := range v.Xs {
			px, ok := Project(x, attr)
			if !ok {
				return nil, false
			}
			kept[i] = px
			same = same && px == x
		}
		if same {
			return v, true
		}
		return &Or{Xs: kept}, true
	}
	return nil, false
}

// RequiredSubstrings mines a predicate for substrings that must appear in
// some attribute value of the subject whenever the predicate holds: the
// chunks of a top-level LIKE pattern and the values of top-level exact
// equalities, gathered across conjunctions. The result is a necessary
// condition only — an entity containing every substring may still fail the
// predicate — which is exactly the contract attribute zone maps need: a
// block whose entities provably lack a required substring cannot contain a
// match and may be skipped. Disjunctions, negations, IN lists and ordered
// comparisons contribute nothing (their satisfying values are not bounded
// below by any substring).
func RequiredSubstrings(p Pred) []string {
	var subs []string
	collectRequired(p, &subs)
	return subs
}

func collectRequired(p Pred, out *[]string) {
	switch v := p.(type) {
	case *Cond:
		if v.Op != CmpEq {
			return
		}
		if v.pattern != nil {
			*out = append(*out, v.pattern.chunks...)
			return
		}
		*out = append(*out, v.Val)
	case *And:
		for _, x := range v.Xs {
			collectRequired(x, out)
		}
	}
}

// likePattern implements SQL-LIKE matching restricted to the '%' wildcard,
// which is the only wildcard AIQL queries use.
type likePattern struct {
	chunks     []string
	leadAnchor bool // pattern does not start with %
	tailAnchor bool // pattern does not end with %
}

func compileLike(pat string) *likePattern {
	return &likePattern{
		chunks:     splitNonEmpty(pat, "%"),
		leadAnchor: !strings.HasPrefix(pat, "%"),
		tailAnchor: !strings.HasSuffix(pat, "%"),
	}
}

func splitNonEmpty(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func (p *likePattern) match(s string) bool {
	if len(p.chunks) == 0 {
		// Pattern was only wildcards ("%", "%%"): matches anything.
		return true
	}
	rest := s
	for i, chunk := range p.chunks {
		var idx int
		if i == 0 && p.leadAnchor {
			if !strings.HasPrefix(rest, chunk) {
				return false
			}
			idx = 0
		} else {
			idx = strings.Index(rest, chunk)
			if idx < 0 {
				return false
			}
		}
		rest = rest[idx+len(chunk):]
	}
	if p.tailAnchor {
		// Last chunk must sit at the end of the string.
		last := p.chunks[len(p.chunks)-1]
		return strings.HasSuffix(s, last) && len(rest) == 0
	}
	return true
}

// LikeMatch reports whether s matches a SQL-LIKE pattern using '%' wildcards.
func LikeMatch(pattern, s string) bool { return compileLike(pattern).match(s) }

// Compile-time interface checks.
var (
	_ Pred       = (*Cond)(nil)
	_ Pred       = (*Not)(nil)
	_ Pred       = (*And)(nil)
	_ Pred       = (*Or)(nil)
	_ Attributed = (*types.Entity)(nil)
	_ Attributed = (*types.Event)(nil)
)
