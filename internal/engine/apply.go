package engine

import (
	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// applyJoin emulates the join discipline of graph query engines like
// Neo4j's Cypher runtime (paper Sec. 6.2.2: "Neo4j generally runs slower
// than PostgreSQL, due to the lack of support for efficient joins").
// Instead of fetching each pattern once and hash-joining, the engine
// anchors on the first pattern and, for every intermediate row, re-expands
// the next pattern through the store — an Apply operator. Equality
// relationships bind node values from the current row (index seeks);
// patterns related only temporally, or not at all, are re-expanded in full
// for every row, which is exactly the cartesian blow-up the paper observed
// for events with no common entities.
func (x *execution) applyJoin() (*tupleSet, error) {
	plan := x.plan
	applied := make([]bool, len(plan.Joins))
	base, err := x.runPattern(0, nil)
	if err != nil {
		return nil, err
	}
	acc := x.note(newTupleSet(0, base))
	for _, ji := range applicableJoins(plan.Joins, acc.has, applied) {
		acc = x.note(filterTuples(acc, plan, []int{ji}))
		applied[ji] = true
	}
	for i := 1; i < len(plan.Patterns); i++ {
		cover := func(p int) bool { return acc.has(p) || p == i }
		rels := applicableJoins(plan.Joins, cover, applied)

		right := map[int]int{i: 0}
		out := &tupleSet{cols: joinedCols(acc.cols, right)}
		for r := range acc.rows {
			pc := x.rowConstraint(rels, i, acc, acc.rows[r])
			jn := newJoiner(plan, x.bud, &tupleSet{cols: acc.cols, rows: acc.rows[r : r+1]}, right, rels)
			if err := x.stream(jn, i, pc); err != nil {
				return nil, err
			}
			out.rows = append(out.rows, jn.result().rows...)
			if err := x.bud.checkRows(len(out.rows)); err != nil {
				return nil, err
			}
		}
		for _, ji := range rels {
			applied[ji] = true
		}
		acc = x.note(out)
	}
	return acc, nil
}

// rowConstraint builds the per-row binding an Apply operator passes into
// the inner expansion: equality relationships seed index seeks, temporal
// relationships narrow the expansion's time bounds.
func (x *execution) rowConstraint(rels []int, target int, acc *tupleSet, row []storage.Match) *patternConstraint {
	var merged *patternConstraint
	for _, ji := range rels {
		j := &x.plan.Joins[ji]
		var known int
		switch {
		case j.A == target && acc.has(j.B):
			known = j.B
		case j.B == target && acc.has(j.A):
			known = j.A
		default:
			continue
		}
		m := acc.match(row, known)
		pc := x.constraintFromMatches(j, known, 1, func(int) *storage.Match { return m })
		merged = mergeConstraints(merged, pc)
	}
	return merged
}

// mergeConstraints conjoins two pattern constraints.
func mergeConstraints(a, b *patternConstraint) *patternConstraint {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &patternConstraint{
		subjAllowed: intersectIDSets(a.subjAllowed, b.subjAllowed),
		objAllowed:  intersectIDSets(a.objAllowed, b.objAllowed),
		subjExtra:   andPreds(a.subjExtra, b.subjExtra),
		objExtra:    andPreds(a.objExtra, b.objExtra),
	}
	switch {
	case a.window == nil:
		out.window = b.window
	case b.window == nil:
		out.window = a.window
	default:
		w := a.window.Intersect(*b.window)
		out.window = &w
	}
	return out
}

func intersectIDSets(a, b map[types.EntityID]struct{}) map[types.EntityID]struct{} {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(map[types.EntityID]struct{})
	for id := range a {
		if _, ok := b[id]; ok {
			out[id] = struct{}{}
		}
	}
	return out
}

func andPreds(a, b pred.Pred) pred.Pred {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return pred.AndOf(a, b)
}
