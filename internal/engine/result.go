package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aiql/internal/storage"
)

// colValue projects one return column from a tuple row.
func colValue(ts *tupleSet, row []storage.Match, ref *ColRef) string {
	m := ts.match(row, ref.Pattern)
	if ref.IsEvent {
		v, _ := m.Event.Attr(ref.Attr)
		return v
	}
	v, _ := sideValue(m, ref.Side, ref.Attr)
	return v
}

// project turns the final tuple set into the query result, applying the
// return clause, distinct/count, group-by aggregation, having, sort and top.
func project(plan *Plan, ts *tupleSet) (*Result, error) {
	if plan.HasAggregation() || len(plan.GroupBy) > 0 {
		return aggregate(plan, ts)
	}
	res := &Result{Columns: plan.Columns()}
	rows := make([][]string, 0, len(ts.rows))
	for _, row := range ts.rows {
		out := make([]string, len(plan.Return.Items))
		for i := range plan.Return.Items {
			out[i] = colValue(ts, row, plan.Return.Items[i].Ref)
		}
		rows = append(rows, out)
	}
	if plan.Return.Distinct {
		rows = dedupeRows(rows)
	}
	if plan.Return.Count {
		res.Columns = []string{"count"}
		res.Rows = [][]string{{strconv.Itoa(len(rows))}}
		return res, nil
	}
	sortRows(rows, plan.SortBy, plan.SortDesc)
	if plan.Top > 0 && len(rows) > plan.Top {
		rows = rows[:plan.Top]
	}
	res.Rows = rows
	return res, nil
}

// aggregate evaluates a non-windowed aggregation (group by over the joined
// tuples). Windowed (anomaly) aggregation lives in anomaly.go.
func aggregate(plan *Plan, ts *tupleSet) (*Result, error) {
	type group struct {
		keyVals []string
		rows    [][]storage.Match
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range ts.rows {
		keyVals := make([]string, len(plan.GroupBy))
		for i, g := range plan.GroupBy {
			keyVals[i] = colValue(ts, row, g)
		}
		key := strings.Join(keyVals, "\x00")
		g, ok := groups[key]
		if !ok {
			g = &group{keyVals: keyVals}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, row)
	}
	// A query with aggregates but no group-by forms one global group.
	if len(plan.GroupBy) == 0 && len(groups) == 0 && len(ts.rows) > 0 {
		groups[""] = &group{rows: ts.rows}
		order = append(order, "")
	}

	res := &Result{Columns: plan.Columns()}
	for _, key := range order {
		g := groups[key]
		out := make([]string, len(plan.Return.Items))
		env := staticEnv{}
		for i := range plan.Return.Items {
			item := &plan.Return.Items[i]
			switch {
			case item.Ref != nil:
				out[i] = colValue(ts, g.rows[0], item.Ref)
			case item.Agg != nil:
				v := computeAgg(item.Agg, ts, g.rows)
				out[i] = formatNum(v)
				env[item.Name] = v
			}
		}
		if plan.Having != nil {
			ok, err := evalBool(plan.Having, env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		res.Rows = append(res.Rows, out)
	}
	if plan.Return.Distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	sortRows(res.Rows, plan.SortBy, plan.SortDesc)
	if plan.Top > 0 && len(res.Rows) > plan.Top {
		res.Rows = res.Rows[:plan.Top]
	}
	return res, nil
}

// computeAgg evaluates one aggregate over a group's rows.
func computeAgg(a *AggSpec, ts *tupleSet, rows [][]storage.Match) float64 {
	var seen map[string]struct{}
	if a.Distinct {
		seen = make(map[string]struct{}, len(rows))
	}
	numeric := a.numeric()
	var st aggState
	for _, row := range rows {
		v := ""
		if a.Arg != nil {
			v = colValue(ts, row, a.Arg)
		}
		if seen != nil {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
		}
		st.count++
		if numeric {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				st.add(f)
			}
		}
	}
	return st.value(a.Func)
}

// aggState folds one aggregate's values in row order: count counts every
// value, the numeric functions only those that parse as numbers. Over no
// values every function is 0.
type aggState struct {
	count, n    int
	sum, mn, mx float64
}

func (s *aggState) add(f float64) {
	if s.n == 0 {
		s.mn, s.mx = f, f
	}
	if f < s.mn {
		s.mn = f
	}
	if f > s.mx {
		s.mx = f
	}
	s.sum += f
	s.n++
}

func (s *aggState) value(fn string) float64 {
	switch fn {
	case "count":
		return float64(s.count)
	case "sum":
		return s.sum
	case "avg":
		if s.n == 0 {
			return 0
		}
		return s.sum / float64(s.n)
	case "min":
		return s.mn
	case "max":
		return s.mx
	}
	return 0
}

func dedupeRows(rows [][]string) [][]string {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		key := strings.Join(r, "\x00")
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, r)
	}
	return out
}

// sortRows orders rows by the given column indexes, comparing numerically
// when both cells parse as numbers.
func sortRows(rows [][]string, keys []int, desc bool) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			if k >= len(rows[i]) || k >= len(rows[j]) {
				continue
			}
			c := compareCell(rows[i][k], rows[j][k])
			if c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func compareCell(a, b string) int {
	an, aerr := strconv.ParseFloat(a, 64)
	bn, berr := strconv.ParseFloat(b, 64)
	if aerr == nil && berr == nil {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// String renders a result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}
