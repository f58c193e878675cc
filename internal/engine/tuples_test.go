package engine

import (
	"errors"
	"testing"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// beforeSets returns an l-row set on pattern 0 whose events all precede an
// r-row set on pattern 1, and a plan whose one relationship, "evt0 before
// evt1", admits every pair but cannot key a hash join.
func beforeSets(l, r int) (*Plan, *tupleSet, *tupleSet) {
	events := func(n int, start int64) []storage.Match {
		ms := make([]storage.Match, n)
		for i := range ms {
			ms[i].Event = &types.Event{Start: start + int64(i), End: start + int64(i)}
		}
		return ms
	}
	plan := &Plan{Joins: []Join{{Kind: JoinTemporal, A: 0, B: 1, TempKind: "before"}}}
	return plan, newTupleSet(0, events(l, 0)), newTupleSet(1, events(r, 1000))
}

// TestNestedLoopChargesProductUpFront pins the pair budget's fail-fast
// shape: a nested loop over a materialized right side charges |L|×|R| in
// one step before it pairs anything, so a join the budget cannot afford
// fails without spending the budget first, while a streamed right side
// pays |L| per row as it arrives.
func TestNestedLoopChargesProductUpFront(t *testing.T) {
	const l, r = 3, 4
	plan, ta, tb := beforeSets(l, r)

	bud := &budget{maxPairs: l}
	if _, err := joinTuples(ta, tb, plan, []int{0}, bud); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("materialized join under %d pairs: err = %v, want ErrTooLarge", l, err)
	}
	if bud.pairs != l*r {
		t.Errorf("materialized join charged %d pairs before failing, want the whole product %d", bud.pairs, l*r)
	}

	bud = &budget{maxPairs: l * r}
	out, err := joinTuples(ta, tb, plan, []int{0}, bud)
	if err != nil {
		t.Fatalf("materialized join within budget: %v", err)
	}
	if len(out.rows) != l*r || bud.pairs != l*r {
		t.Errorf("materialized join: %d rows, %d pairs; want %d of each", len(out.rows), bud.pairs, l*r)
	}

	bud = &budget{maxPairs: l}
	jn := newJoiner(plan, bud, ta, tb.cols, []int{0})
	var err2 error
	for _, row := range tb.rows {
		if err2 = jn.add(row); err2 != nil {
			break
		}
	}
	if !errors.Is(err2, ErrTooLarge) || bud.pairs != 2*l {
		t.Errorf("streamed join under %d pairs: err = %v after %d pairs, want ErrTooLarge after %d", l, err2, bud.pairs, 2*l)
	}
}

// TestJoinerOrder: output is left-major, in right-row order within each
// left row, on both the hash and the nested-loop path.
func TestJoinerOrder(t *testing.T) {
	ent := func(id types.EntityID) *types.Entity { return &types.Entity{ID: id} }
	match := func(start int64, subj types.EntityID) storage.Match {
		return storage.Match{Event: &types.Event{Start: start, End: start}, Subj: ent(subj)}
	}
	left := []storage.Match{match(0, 1), match(1, 2), match(2, 1)}
	right := []storage.Match{match(10, 1), match(11, 2), match(12, 1)}
	idEq := Join{Kind: JoinAttr, A: 0, B: 1, ASide: SideSubject, AAttr: types.AttrID, Op: pred.CmpEq, BSide: SideSubject, BAttr: types.AttrID}
	want := [][2]int64{{0, 10}, {0, 12}, {1, 11}, {2, 10}, {2, 12}}
	for _, noHash := range []bool{false, true} {
		plan := &Plan{Joins: []Join{idEq}}
		out, err := joinTuples(newTupleSet(0, left), newTupleSet(1, right), plan, []int{0}, &budget{noHash: noHash})
		if err != nil {
			t.Fatal(err)
		}
		var got [][2]int64
		for _, row := range out.rows {
			got = append(got, [2]int64{out.match(row, 0).Event.Start, out.match(row, 1).Event.Start})
		}
		if len(got) != len(want) {
			t.Fatalf("noHash=%v: rows %v, want %v", noHash, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("noHash=%v: rows %v, want %v", noHash, got, want)
			}
		}
	}
}
