package engine

import (
	"context"
	"errors"
	"strconv"
	"strings"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// ErrTooLarge is returned when an execution exceeds the engine's tuple or
// join-pair budget — the analogue of the baselines' one-hour timeouts in
// the paper's evaluation.
var ErrTooLarge = errors.New("aiql: intermediate result exceeds the configured budget")

// tupleSet is the engine's intermediate result representation (the values
// of Algorithm 1's map M): rows of event matches covering a subset of the
// plan's patterns.
type tupleSet struct {
	// cols maps pattern index -> column position in each row.
	cols map[int]int
	rows [][]storage.Match
}

func newTupleSet(patternIdx int, matches []storage.Match) *tupleSet {
	ts := &tupleSet{cols: map[int]int{patternIdx: 0}, rows: make([][]storage.Match, len(matches))}
	for i := range matches {
		ts.rows[i] = []storage.Match{matches[i]}
	}
	return ts
}

func (ts *tupleSet) has(pattern int) bool {
	_, ok := ts.cols[pattern]
	return ok
}

func (ts *tupleSet) match(row []storage.Match, pattern int) *storage.Match {
	return &row[ts.cols[pattern]]
}

// sideValue extracts the join value of a match for one side/attr pair.
func sideValue(m *storage.Match, side Side, attr string) (string, bool) {
	var ent *types.Entity
	if side == SideSubject {
		ent = m.Subj
	} else {
		ent = m.Obj
	}
	if ent == nil {
		return "", false
	}
	return ent.Attr(attr)
}

// sideEntity picks a match's entity for one side.
func sideEntity(m *storage.Match, side Side) *types.Entity {
	if side == SideSubject {
		return m.Subj
	}
	return m.Obj
}

// evalJoin evaluates a compiled relationship between two concrete matches.
func evalJoin(j *Join, ma, mb *storage.Match) bool {
	switch j.Kind {
	case JoinAttr:
		// Entity-id equality — every entity-variable reuse compiles to one —
		// compares the ids numerically instead of formatting both to
		// strings: same verdict, no allocation on the join hot path.
		if j.Op == pred.CmpEq && j.AAttr == types.AttrID && j.BAttr == types.AttrID {
			ea, eb := sideEntity(ma, j.ASide), sideEntity(mb, j.BSide)
			if ea == nil || eb == nil {
				return false
			}
			return ea.ID == eb.ID
		}
		av, aok := sideValue(ma, j.ASide, j.AAttr)
		bv, bok := sideValue(mb, j.BSide, j.BAttr)
		if !aok || !bok {
			return false
		}
		return compareValues(av, bv, j.Op)
	case JoinTemporal:
		ta, tb := ma.Event, mb.Event
		switch j.TempKind {
		case "before":
			if !ta.Before(tb) {
				return false
			}
			if j.HiMs > 0 {
				d := tb.Start - ta.Start
				return d >= j.LoMs && d <= j.HiMs
			}
			return true
		case "within":
			if j.HiMs <= 0 {
				return true
			}
			d := tb.Start - ta.Start
			if d < 0 {
				d = -d
			}
			return d >= j.LoMs && d <= j.HiMs
		}
	}
	return false
}

func compareValues(a, b string, op pred.CmpOp) bool {
	if op == pred.CmpEq {
		return a == b
	}
	if op == pred.CmpNe {
		return a != b
	}
	var cmp int
	an, aerr := strconv.ParseFloat(a, 64)
	bn, berr := strconv.ParseFloat(b, 64)
	if aerr == nil && berr == nil {
		switch {
		case an < bn:
			cmp = -1
		case an > bn:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case pred.CmpLt:
		return cmp < 0
	case pred.CmpLe:
		return cmp <= 0
	case pred.CmpGt:
		return cmp > 0
	case pred.CmpGe:
		return cmp >= 0
	}
	return false
}

// budget tracks tuple growth across an execution so that runaway joins
// fail fast instead of exhausting memory. It doubles as the join's
// cancellation point: chargePairs runs for every right row the joiner adds
// (once up front for a materialized nested loop), so a canceled context
// aborts long joins promptly.
type budget struct {
	maxTuples int
	maxPairs  int64
	pairs     int64
	noHash    bool
	ctx       context.Context
}

func (b *budget) chargePairs(n int64) error {
	b.pairs += n
	if b.maxPairs > 0 && b.pairs > b.maxPairs {
		return ErrTooLarge
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (b *budget) checkRows(n int) error {
	if b.maxTuples > 0 && n > b.maxTuples {
		return ErrTooLarge
	}
	return nil
}

// applicableJoins returns the joins whose two patterns are both covered by
// the column sets (used by the baselines' late filtering).
func applicableJoins(joins []Join, has func(int) bool, applied []bool) []int {
	var out []int
	for i := range joins {
		if applied[i] {
			continue
		}
		if has(joins[i].A) && has(joins[i].B) {
			out = append(out, i)
		}
	}
	return out
}

// joiner is the engine's one join algorithm. It pairs a left tuple set with
// right rows added one at a time (a streamed match is a one-column row),
// keeping the pairs that satisfy every relationship in rels. An equality
// relationship between the two inputs keys a hash index over the left rows,
// which each right row probes; without one, or under NoHashJoin, each right
// row is checked against every left row. A right row that joined is copied
// into an arena, so it may live in a reused scan batch, and result emits
// left-major, in right-row order within each left row.
type joiner struct {
	bud   *budget
	left  *tupleSet
	cols  map[int]int // the output's columns (joinedCols)
	width int         // columns per right row
	rels  []joinRel

	index   map[string][]int // hash key -> left rows; nil on a nested loop
	all     []int            // nested loop: every left row
	keyCol  int              // hash key's column in a right row
	keySide Side
	keyAttr string
	prepaid bool // addAll already charged the nested loop's pairs

	arena []storage.Match // right rows that joined, width apart
	hits  [][]int32       // per left row: arena offsets of its right rows
	total int
}

// joinRel is one relationship to check, its patterns as output columns.
type joinRel struct {
	j    *Join
	a, b int
}

func newJoiner(plan *Plan, bud *budget, left *tupleSet, rcols map[int]int, relIdx []int) *joiner {
	jn := &joiner{
		bud: bud, left: left, width: len(rcols), cols: joinedCols(left.cols, rcols),
		rels: make([]joinRel, 0, len(relIdx)), hits: make([][]int32, len(left.rows)),
	}
	for _, ri := range relIdx {
		j := &plan.Joins[ri]
		jn.rels = append(jn.rels, joinRel{j: j, a: jn.cols[j.A], b: jn.cols[j.B]})
		_, aRight := rcols[j.A]
		_, bRight := rcols[j.B]
		if jn.index != nil || bud.noHash || j.Kind != JoinAttr || j.Op != pred.CmpEq || aRight == bRight {
			continue
		}
		lp, ls, la, rp, rs, ra := j.A, j.ASide, j.AAttr, j.B, j.BSide, j.BAttr
		if aRight {
			lp, ls, la, rp, rs, ra = rp, rs, ra, lp, ls, la
		}
		jn.keyCol, jn.keySide, jn.keyAttr = rcols[rp], rs, ra
		jn.index = make(map[string][]int, len(left.rows))
		for i, row := range left.rows {
			if v, ok := sideValue(left.match(row, lp), ls, la); ok {
				jn.index[v] = append(jn.index[v], i)
			}
		}
	}
	if jn.index == nil {
		jn.all = make([]int, len(left.rows))
		for i := range jn.all {
			jn.all[i] = i
		}
	}
	return jn
}

// addAll joins a materialized right side. A nested loop charges all
// |left|×|right| pairs before pairing any, so a join the budget cannot
// afford fails before doing the work.
func (jn *joiner) addAll(rows [][]storage.Match) error {
	if jn.index == nil {
		if err := jn.bud.chargePairs(int64(len(jn.all)) * int64(len(rows))); err != nil {
			return err
		}
		jn.prepaid = true
	}
	for _, r := range rows {
		if err := jn.add(r); err != nil {
			return err
		}
	}
	return nil
}

// add joins one right row: a hash probe charges its bucket plus the probe,
// a nested loop one pair per left row.
func (jn *joiner) add(r []storage.Match) error {
	cand := jn.all
	if jn.index != nil {
		v, ok := sideValue(&r[jn.keyCol], jn.keySide, jn.keyAttr)
		if !ok {
			return nil
		}
		cand = jn.index[v]
		if err := jn.bud.chargePairs(int64(len(cand)) + 1); err != nil {
			return err
		}
	} else if !jn.prepaid {
		if err := jn.bud.chargePairs(int64(len(cand))); err != nil {
			return err
		}
	}
	at := int32(-1)
	for _, i := range cand {
		if !jn.check(jn.left.rows[i], r) {
			continue
		}
		if at < 0 {
			at = int32(len(jn.arena))
			jn.arena = append(jn.arena, r...)
		}
		jn.hits[i] = append(jn.hits[i], at)
		jn.total++
		if err := jn.bud.checkRows(jn.total); err != nil {
			return err
		}
	}
	return nil
}

func (jn *joiner) check(l, r []storage.Match) bool {
	pick := func(c int) *storage.Match {
		if c < len(l) {
			return &l[c]
		}
		return &r[c-len(l)]
	}
	for _, rel := range jn.rels {
		if !evalJoin(rel.j, pick(rel.a), pick(rel.b)) {
			return false
		}
	}
	return true
}

// result emits the joined rows, all carved from one backing array.
func (jn *joiner) result() *tupleSet {
	w := len(jn.left.cols) + jn.width
	flat := make([]storage.Match, jn.total*w)
	out := &tupleSet{cols: jn.cols, rows: make([][]storage.Match, 0, jn.total)}
	for i, row := range jn.left.rows {
		for _, at := range jn.hits[i] {
			nr := flat[:w:w]
			flat = flat[w:]
			copy(nr, row)
			copy(nr[len(row):], jn.arena[at:int(at)+jn.width])
			out.rows = append(out.rows, nr)
		}
	}
	return out
}

// joinedCols lays a join's output columns out: the left input's, then the
// right input's after them.
func joinedCols(lcols, rcols map[int]int) map[int]int {
	cols := make(map[int]int, len(lcols)+len(rcols))
	for p, c := range lcols {
		cols[p] = c
	}
	for p, c := range rcols {
		cols[p] = len(lcols) + c
	}
	return cols
}

// joinTuples joins two materialized tuple sets.
func joinTuples(ta, tb *tupleSet, plan *Plan, relIdx []int, bud *budget) (*tupleSet, error) {
	jn := newJoiner(plan, bud, ta, tb.cols, relIdx)
	if err := jn.addAll(tb.rows); err != nil {
		return nil, err
	}
	return jn.result(), nil
}

// joinStream extends a materialized tuple set by one pattern whose matches
// are *streamed* from the backend instead of materialized first — the
// cursor-era form of Algorithm 1's constrained execution. The scan only
// starts if the constraining tuple set has rows at all; budget exhaustion
// and context cancellation abort the stream mid-flight, before the
// remaining batches are even produced.
func (x *execution) joinStream(ts *tupleSet, pattern int, pc *patternConstraint, relIdx []int) (*tupleSet, error) {
	span := x.span.Child("join")
	span.Set("kind", "stream")
	pairsBefore := x.bud.pairs
	jn := newJoiner(x.plan, x.bud, ts, map[int]int{pattern: 0}, relIdx)
	rowsOut := 0
	defer func() {
		span.Add("rows_in", int64(len(ts.rows)))
		span.Add("rows_out", int64(rowsOut))
		span.Add("pairs", x.bud.pairs-pairsBefore)
		span.End()
	}()
	// An empty constraining set makes the join trivially empty: account the
	// data query in the diagnostics but never open the scan at all.
	if len(ts.rows) == 0 {
		x.queries++
	} else if err := x.stream(jn, pattern, pc); err != nil {
		return nil, err
	}
	out := jn.result()
	rowsOut = len(out.rows)
	return out, nil
}

// stream adds every match of one pattern's data query to a joiner.
func (x *execution) stream(jn *joiner, pattern int, pc *patternConstraint) error {
	cur := x.scanPattern(pattern, pc)
	defer cur.Close()
	batch := make([]storage.Match, storage.ScanBatchSize)
	for {
		n := cur.Next(batch)
		if n == 0 {
			return cur.Err()
		}
		for k := 0; k < n; k++ {
			if err := jn.add(batch[k : k+1]); err != nil {
				return err
			}
		}
	}
}

// filterTuples keeps the rows of a tuple set satisfying the given
// relationships (both patterns of each relationship must be in the set).
func filterTuples(ts *tupleSet, plan *Plan, relIdx []int) *tupleSet {
	out := &tupleSet{cols: ts.cols, rows: ts.rows[:0:0]}
	for _, row := range ts.rows {
		ok := true
		for _, ri := range relIdx {
			j := &plan.Joins[ri]
			if !evalJoin(j, ts.match(row, j.A), ts.match(row, j.B)) {
				ok = false
				break
			}
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out
}
