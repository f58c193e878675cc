package pred

import (
	"strings"
	"testing"
	"testing/quick"

	"aiql/internal/types"
)

func fileEnt(name string) *types.Entity {
	return &types.Entity{ID: 1, Type: types.EntityFile, AgentID: 3,
		Attrs: map[string]string{types.AttrName: name, types.AttrOwner: "root"}}
}

func TestCondEquality(t *testing.T) {
	c := NewCond(types.AttrName, CmpEq, "/etc/passwd")
	if !c.Eval(fileEnt("/etc/passwd")) {
		t.Error("exact equality failed")
	}
	if c.Eval(fileEnt("/etc/shadow")) {
		t.Error("inequality matched")
	}
}

func TestCondLikePatterns(t *testing.T) {
	cases := []struct {
		pattern string
		value   string
		want    bool
	}{
		{"%cmd.exe", `C:\Windows\System32\cmd.exe`, true},
		{"%cmd.exe", `C:\Windows\System32\cmd.exe.bak`, false},
		{"/var/www%", "/var/www/html/index.html", true},
		{"/var/www%", "/srv/var/www/x", false},
		{"%telnet%", "/usr/bin/telnetd", true},
		{"%telnet%", "/usr/bin/ssh", false},
		{"%", "anything at all", true},
		{"%%", "x", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "abc", true},
		{"a%b%c", "acb", false},
		{"a%b%c", "aXbYcZ", false},
		{"abc", "abc", true},
		{"%etc%hosts", `C:\Windows\System32\drivers\etc\hosts`, true},
		// The tail-anchored chunk also occurs earlier in the value.
		{"%a", "a_a", true},
		{"%.exe", "x.exe.exe", true},
		{"a%b", "ab_b", true},
		{"a%a", "a", false},
		{"ab%b", "ab", false},
	}
	for _, tc := range cases {
		c := NewCond(types.AttrName, CmpEq, tc.pattern)
		got := c.Eval(fileEnt(tc.value))
		if got != tc.want {
			t.Errorf("LIKE %q against %q = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
		if LikeMatch(tc.pattern, tc.value) != tc.want {
			t.Errorf("LikeMatch(%q, %q) != %v", tc.pattern, tc.value, tc.want)
		}
	}
}

func TestLikeMatchSubstringAgreement(t *testing.T) {
	// Property: "%s%" behaves exactly like strings.Contains for
	// wildcard-free s.
	f := func(needle, hay string) bool {
		if strings.ContainsRune(needle, '%') {
			return true
		}
		return LikeMatch("%"+needle+"%", hay) == strings.Contains(hay, needle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatchAnchors(t *testing.T) {
	// hay repeats the needle, so the first place it occurs is not the only
	// place an anchored chunk may have to sit.
	f := func(needle, a, b string, shape uint8) bool {
		if strings.ContainsRune(needle, '%') {
			return true
		}
		var hay string
		switch shape % 3 {
		case 0:
			hay = a + b
		case 1:
			hay = needle + a + needle + b
		default:
			hay = a + needle + b + needle
		}
		return LikeMatch(needle+"%", hay) == strings.HasPrefix(hay, needle) &&
			LikeMatch("%"+needle, hay) == strings.HasSuffix(hay, needle) &&
			LikeMatch(needle+"%"+needle, hay) == (len(hay) >= 2*len(needle) &&
				strings.HasPrefix(hay, needle) && strings.HasSuffix(hay, needle))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondNumericComparison(t *testing.T) {
	ent := &types.Entity{Type: types.EntityNetwork,
		Attrs: map[string]string{types.AttrDstPort: "4444"}}
	if !NewCond(types.AttrDstPort, CmpEq, "4444").Eval(ent) {
		t.Error("numeric equality failed")
	}
	if !NewCond(types.AttrDstPort, CmpGt, "1000").Eval(ent) {
		t.Error("4444 > 1000 failed")
	}
	if NewCond(types.AttrDstPort, CmpLt, "1000").Eval(ent) {
		t.Error("4444 < 1000 matched")
	}
	if !NewCond(types.AttrDstPort, CmpGe, "4444").Eval(ent) {
		t.Error(">= failed at boundary")
	}
	if !NewCond(types.AttrDstPort, CmpLe, "4444").Eval(ent) {
		t.Error("<= failed at boundary")
	}
	// Numeric compare matters: "9" < "10" numerically but not lexically.
	low := &types.Entity{Type: types.EntityNetwork,
		Attrs: map[string]string{types.AttrDstPort: "9"}}
	if !NewCond(types.AttrDstPort, CmpLt, "10").Eval(low) {
		t.Error("numeric 9 < 10 failed (lexical comparison leaked through)")
	}
}

func TestCondLexicalFallback(t *testing.T) {
	ent := fileEnt("beta")
	if !NewCond(types.AttrName, CmpGt, "alpha").Eval(ent) {
		t.Error("lexical beta > alpha failed")
	}
	if NewCond(types.AttrName, CmpLt, "alpha").Eval(ent) {
		t.Error("lexical beta < alpha matched")
	}
}

func TestCondInList(t *testing.T) {
	c := NewCond(types.AttrName, CmpIn, "", "/a", "/b", "%tmp%")
	if !c.Eval(fileEnt("/a")) || !c.Eval(fileEnt("/b")) {
		t.Error("in-list exact values failed")
	}
	if !c.Eval(fileEnt("/var/tmp/x")) {
		t.Error("in-list wildcard member failed")
	}
	if c.Eval(fileEnt("/c")) {
		t.Error("non-member matched")
	}
	n := NewCond(types.AttrName, CmpNotIn, "", "/a")
	if n.Eval(fileEnt("/a")) || !n.Eval(fileEnt("/x")) {
		t.Error("not-in semantics wrong")
	}
}

func TestMissingAttribute(t *testing.T) {
	ent := fileEnt("/x")
	// Positive comparisons on missing attributes fail; negative ones hold.
	if NewCond("missing", CmpEq, "v").Eval(ent) {
		t.Error("= on missing attribute matched")
	}
	if !NewCond("missing", CmpNe, "v").Eval(ent) {
		t.Error("!= on missing attribute did not match")
	}
	if NewCond("missing", CmpIn, "", "v").Eval(ent) {
		t.Error("in on missing attribute matched")
	}
	if !NewCond("missing", CmpNotIn, "", "v").Eval(ent) {
		t.Error("not in on missing attribute did not match")
	}
	if NewCond("missing", CmpGt, "0").Eval(ent) {
		t.Error("> on missing attribute matched")
	}
}

func TestBooleanCombinators(t *testing.T) {
	a := NewCond(types.AttrName, CmpEq, "%passwd%")
	b := NewCond(types.AttrOwner, CmpEq, "root")
	ent := fileEnt("/etc/passwd")

	and := AndOf(a, b)
	if !and.Eval(ent) {
		t.Error("AND failed")
	}
	or := &Or{Xs: []Pred{NewCond(types.AttrName, CmpEq, "/nope"), b}}
	if !or.Eval(ent) {
		t.Error("OR failed")
	}
	not := &Not{X: a}
	if not.Eval(ent) {
		t.Error("NOT matched")
	}
	if !(&Not{X: NewCond(types.AttrName, CmpEq, "/nope")}).Eval(ent) {
		t.Error("NOT of false failed")
	}
}

func TestAndOfFlattens(t *testing.T) {
	a := NewCond("x", CmpEq, "1")
	b := NewCond("y", CmpEq, "2")
	c := NewCond("z", CmpEq, "3")
	nested := AndOf(AndOf(a, b), c)
	and, ok := nested.(*And)
	if !ok {
		t.Fatalf("AndOf did not produce *And: %T", nested)
	}
	if len(and.Xs) != 3 {
		t.Errorf("flattened AND has %d children, want 3", len(and.Xs))
	}
	if AndOf() != True {
		t.Error("empty AndOf should be True")
	}
	if AndOf(a) != a {
		t.Error("single AndOf should be identity")
	}
	if AndOf(nil, True, a) != a {
		t.Error("AndOf must drop nil and True")
	}
}

func TestConstraintCount(t *testing.T) {
	a := NewCond("x", CmpEq, "1")
	b := NewCond("y", CmpEq, "2")
	or := &Or{Xs: []Pred{a, b}}
	and := AndOf(a, or)
	if and.ConstraintCount() != 3 {
		t.Errorf("constraint count = %d, want 3", and.ConstraintCount())
	}
	if True.ConstraintCount() != 0 {
		t.Error("True should count 0 constraints")
	}
	if (&Not{X: or}).ConstraintCount() != 2 {
		t.Error("NOT should pass through its child's count")
	}
}

func TestIndexableKeys(t *testing.T) {
	exact := NewCond(types.AttrName, CmpEq, "/etc/passwd")
	wild := NewCond(types.AttrName, CmpEq, "%passwd%")
	inlist := NewCond(types.AttrOwner, CmpIn, "", "root", "admin")
	other := NewCond(types.AttrOwner, CmpGt, "a")

	keys := IndexableKeys(AndOf(exact, wild, inlist, other))
	if len(keys) != 2 {
		t.Fatalf("keys = %v, want 2 entries", keys)
	}
	if keys[0].Attr != types.AttrName || keys[0].Vals[0] != "/etc/passwd" {
		t.Errorf("first key = %+v", keys[0])
	}
	if keys[1].Attr != types.AttrOwner || len(keys[1].Vals) != 2 {
		t.Errorf("second key = %+v", keys[1])
	}

	// Disjunctions are not necessary conditions: nothing indexable.
	if got := IndexableKeys(&Or{Xs: []Pred{exact, inlist}}); len(got) != 0 {
		t.Errorf("Or produced index keys: %v", got)
	}
	// Negations are not indexable either.
	if got := IndexableKeys(&Not{X: exact}); len(got) != 0 {
		t.Errorf("Not produced index keys: %v", got)
	}
	// An in-list containing a wildcard is not exactly servable.
	wildIn := NewCond(types.AttrName, CmpIn, "", "/a", "%b%")
	if got := IndexableKeys(wildIn); len(got) != 0 {
		t.Errorf("wildcard in-list produced index keys: %v", got)
	}
}

func TestProject(t *testing.T) {
	name := types.AttrName
	like := NewCond(name, CmpEq, "%passwd")
	ordered := NewCond(name, CmpGe, "/b")
	inWild := NewCond(name, CmpIn, "", "/a", "%log%")
	owner := NewCond(types.AttrOwner, CmpEq, "root")

	// Whole predicates over the attribute project onto themselves.
	for _, p := range []Pred{like, ordered, inWild, AndOf(like, ordered), &Or{Xs: []Pred{like, inWild}}} {
		if got, ok := Project(p, name); !ok || got != p {
			t.Errorf("Project(%s) = %v, %v; want the predicate itself", p, got, ok)
		}
	}
	// An And keeps its projecting conjuncts.
	if got, ok := Project(AndOf(like, owner), name); !ok || got != like {
		t.Errorf("Project(like && owner) = %v, %v; want like", got, ok)
	}
	if got, ok := Project(AndOf(like, owner, ordered), name); !ok || got.String() != AndOf(like, ordered).String() {
		t.Errorf("Project(like && owner && ordered) = %v, %v; want like && ordered", got, ok)
	}
	// Nothing a missing attribute satisfies projects, nor does an Or with a
	// disjunct on another attribute, nor the empty Or.
	for _, p := range []Pred{
		NewCond(name, CmpNe, "/a"),
		NewCond(name, CmpNotIn, "", "/a"),
		&Not{X: like},
		&Or{Xs: []Pred{like, owner}},
		&Or{},
		owner,
		True,
	} {
		if got, ok := Project(p, name); ok {
			t.Errorf("Project(%s) = %v; want no projection", p, got)
		}
	}
}

// TestIndexKeysAreNecessary is the core index-correctness property: if the
// predicate accepts an entity, then for every mined index key the entity's
// attribute value is in the key's value set.
func TestIndexKeysAreNecessary(t *testing.T) {
	names := []string{"/a", "/b", "/c"}
	owners := []string{"root", "user"}
	preds := []Pred{
		AndOf(NewCond(types.AttrName, CmpEq, "/a"), NewCond(types.AttrOwner, CmpEq, "root")),
		AndOf(NewCond(types.AttrName, CmpIn, "", "/a", "/b")),
		AndOf(NewCond(types.AttrName, CmpEq, "/b"), &Or{Xs: []Pred{
			NewCond(types.AttrOwner, CmpEq, "root"), NewCond(types.AttrOwner, CmpEq, "user")}}),
	}
	for _, p := range preds {
		keys := IndexableKeys(p)
		for _, name := range names {
			for _, owner := range owners {
				e := &types.Entity{Type: types.EntityFile,
					Attrs: map[string]string{types.AttrName: name, types.AttrOwner: owner}}
				if !p.Eval(e) {
					continue
				}
				for _, k := range keys {
					v, _ := e.Attr(k.Attr)
					found := false
					for _, kv := range k.Vals {
						if kv == v {
							found = true
						}
					}
					if !found {
						t.Errorf("pred %s accepts %v but index key %v excludes it", p, e.Attrs, k)
					}
				}
			}
		}
	}
}

func TestPredStrings(t *testing.T) {
	c := NewCond(types.AttrName, CmpEq, "%x%")
	if !strings.Contains(c.String(), "name") {
		t.Errorf("Cond.String() = %q", c.String())
	}
	in := NewCond("a", CmpIn, "", "1", "2")
	if !strings.Contains(in.String(), "in (1, 2)") {
		t.Errorf("In.String() = %q", in.String())
	}
	notin := NewCond("a", CmpNotIn, "", "1")
	if !strings.Contains(notin.String(), "not in") {
		t.Errorf("NotIn.String() = %q", notin.String())
	}
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, CmpIn, CmpNotIn} {
		if op.String() == "?" {
			t.Errorf("operator %d has no string", op)
		}
	}
}

func TestEventPredicates(t *testing.T) {
	ev := &types.Event{Op: types.OpWrite, Amount: 1 << 20, FailCode: 0}
	big := NewCond(types.EvtAttrAmount, CmpGt, "1000000")
	if !big.Eval(ev) {
		t.Error("amount > 1000000 failed")
	}
	failed := NewCond(types.EvtAttrFailCode, CmpNe, "0")
	if failed.Eval(ev) {
		t.Error("failcode != 0 matched a successful event")
	}
	opIs := NewCond(types.EvtAttrOpType, CmpEq, "write")
	if !opIs.Eval(ev) {
		t.Error("optype = write failed")
	}
}
