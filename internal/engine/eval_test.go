package engine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aiql/internal/ast"
	"aiql/internal/parser"
)

// havingExpr parses just a having expression by wrapping it in a minimal
// query.
func havingExpr(t *testing.T, expr string) ast.Expr {
	t.Helper()
	q, err := parser.Parse(`proc p write ip i as evt
		return p, count(i) as freq
		group by p
		having ` + expr)
	if err != nil {
		t.Fatalf("parse having %q: %v", expr, err)
	}
	return q.Multi.Having
}

type seriesEnv map[string][]float64

func (e seriesEnv) Value(name string, hist int) (float64, bool) {
	s, ok := e[name]
	if !ok {
		return 0, false
	}
	idx := len(s) - 1 - hist
	if idx < 0 {
		return 0, false
	}
	return s[idx], true
}

func (e seriesEnv) Series(name string) []float64 { return e[name] }

func TestEvalArithmetic(t *testing.T) {
	env := seriesEnv{"freq": {1, 2, 6}}
	cases := []struct {
		expr string
		want float64
	}{
		{"freq + 1", 7},
		{"freq - freq[1]", 4},
		{"freq * 2", 12},
		{"freq / 3", 2},
		{"freq / 0", 0}, // division by zero yields no signal
		{"-freq", -6},
		{"2 * (freq + freq[1] + freq[2]) / 3", 6},
		{"freq[5]", 0}, // missing history contributes zero
	}
	for _, tc := range cases {
		got, err := evalNum(havingExpr(t, tc.expr+" > -999999"), env)
		_ = got
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		// Evaluate the arithmetic part directly by re-parsing without the
		// comparison wrapper.
		q, _ := parser.Parse(`proc p write ip i as evt
			return p, count(i) as freq group by p having ` + tc.expr + ` = ` + formatNum(tc.want))
		ok, err := evalBool(q.Multi.Having, env)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if !ok {
			t.Errorf("%s != %g", tc.expr, tc.want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	env := seriesEnv{"freq": {10}}
	truths := []string{
		"freq = 10", "freq != 9", "freq > 9", "freq >= 10",
		"freq < 11", "freq <= 10",
		"freq > 5 && freq < 20", "freq > 100 || freq = 10",
		"!(freq > 100)",
	}
	for _, expr := range truths {
		ok, err := evalBool(havingExpr(t, expr), env)
		if err != nil || !ok {
			t.Errorf("%s = %v, %v; want true", expr, ok, err)
		}
	}
	falses := []string{"freq = 9", "freq > 10 && freq < 20", "freq < 5 || freq > 15"}
	for _, expr := range falses {
		ok, err := evalBool(havingExpr(t, expr), env)
		if err != nil || ok {
			t.Errorf("%s = %v, %v; want false", expr, ok, err)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// freq && UNKNOWN(...) would error if the right side evaluated.
	env := seriesEnv{"freq": {0}}
	ok, err := evalBool(havingExpr(t, "freq > 100 && UNKNOWN(freq)"), env)
	if err != nil || ok {
		t.Errorf("short-circuit AND failed: %v, %v", ok, err)
	}
	env["freq"] = []float64{10}
	ok, err = evalBool(havingExpr(t, "freq > 1 || UNKNOWN(freq)"), env)
	if err != nil || !ok {
		t.Errorf("short-circuit OR failed: %v, %v", ok, err)
	}
}

func TestMovingAverages(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := sma(s, 3); got != 4 {
		t.Errorf("SMA3 = %g, want 4", got)
	}
	if got := sma(s, 10); got != 3 { // clamps to series length
		t.Errorf("SMA10 = %g, want 3", got)
	}
	if got := sma(nil, 3); got != 0 {
		t.Errorf("SMA of empty = %g", got)
	}
	// WMA3 over [3,4,5] = (1*3+2*4+3*5)/6 = 26/6.
	if got := wma(s, 3); math.Abs(got-26.0/6) > 1e-12 {
		t.Errorf("WMA3 = %g", got)
	}
	// EWMA with alpha=1 is the last value; alpha=0 is the first.
	if got := ewma(s, 1); got != 5 {
		t.Errorf("EWMA(1) = %g", got)
	}
	if got := ewma(s, 0); got != 1 {
		t.Errorf("EWMA(0) = %g", got)
	}
	// Recurrence check: e = 0.5*5 + 0.5*(0.5*4 + 0.5*(0.5*3 + 0.5*(0.5*2 + 0.5*1))).
	want := 1.0
	for _, v := range s[1:] {
		want = 0.5*v + 0.5*want
	}
	if got := ewma(s, 0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("EWMA(0.5) = %g, want %g", got, want)
	}
}

func TestMovingAverageCalls(t *testing.T) {
	env := seriesEnv{"freq": {1, 2, 3, 4, 5}}
	cases := []struct {
		expr string
		want float64
	}{
		{"SMA(freq, 3)", 4},
		{"CMA(freq)", 3},
		{"WMA(freq, 3)", 26.0 / 6},
		{"EWMA(freq, 1)", 5},
		{"ABS(0 - freq)", 5},
	}
	for _, tc := range cases {
		q, _ := parser.Parse(`proc p write ip i as evt
			return p, count(i) as freq group by p
			having ABS(` + tc.expr + ` - ` + formatNum(tc.want) + `) < 0.001`)
		ok, err := evalBool(q.Multi.Having, env)
		if err != nil || !ok {
			t.Errorf("%s != %g (%v)", tc.expr, tc.want, err)
		}
	}
}

func TestIncrementalEWMAMatchesFold(t *testing.T) {
	// Property: the anomaly executor's incremental EWMA must agree with the
	// direct fold for any series and alpha.
	f := func(raw []uint8, alphaRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alpha := float64(alphaRaw%100) / 100
		g := &groupState{series: [][]float64{make([]float64, len(raw))}}
		env := &windowEnv{names: map[string]int{"x": 0}, width: []int{1}, g: g}
		for i, v := range raw {
			g.series[0][i] = float64(v)
			env.n = i + 1
			inc, ok := env.EWMA("x", alpha)
			if !ok {
				return false
			}
			direct := ewma(g.series[0][:i+1], alpha)
			if math.Abs(inc-direct) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvalErrors(t *testing.T) {
	env := seriesEnv{"freq": {1}}
	bad := []struct{ expr, want string }{
		{"UNKNOWN(freq)", "unknown function"},
		{"SMA(nosuch, 3)", "unknown aggregate"},
		{"EWMA(freq)", "missing argument"},
		{"SMA(1 + 2, 3)", "aggregate name"},
	}
	for _, tc := range bad {
		_, err := evalBool(havingExpr(t, tc.expr+" > 0"), env)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.expr, err, tc.want)
		}
	}
}

func TestStaticEnv(t *testing.T) {
	env := staticEnv{"n": 42}
	if v, ok := env.Value("n", 0); !ok || v != 42 {
		t.Errorf("Value = %g, %v", v, ok)
	}
	if _, ok := env.Value("n", 1); ok {
		t.Error("static env must not have history")
	}
	if s := env.Series("n"); len(s) != 1 || s[0] != 42 {
		t.Errorf("Series = %v", s)
	}
	if env.Series("missing") != nil {
		t.Error("missing series should be nil")
	}
}

func TestUnaryNot(t *testing.T) {
	env := seriesEnv{"freq": {0}}
	ok, err := evalBool(havingExpr(t, "!freq"), env)
	if err != nil || !ok {
		t.Errorf("!0 = %v, %v", ok, err)
	}
	env["freq"] = []float64{3}
	ok, err = evalBool(havingExpr(t, "!freq"), env)
	if err != nil || ok {
		t.Errorf("!3 = %v, %v", ok, err)
	}
}
