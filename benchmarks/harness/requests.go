package harness

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"aiql/benchmarks/workloads"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// request is one query text with the answer the reference gave for it.
type request struct {
	text string
	// base is the corpus query id or hunt template the text derives from;
	// class is the mix component ("narrow", "wide"); tier is a hunt's range
	// class ("hot", "cold", "mixed"), empty otherwise.
	base, class, tier string
	// want is queries.Canonical of the expected rows.
	want string
}

// reference answers queries in-process over a store with partition pruning
// and indexes disabled, scheduled by the semantics-agnostic big-join
// strategy: the paper-ablation configuration, sharing none of the
// optimisations the daemons under test rely on.
type reference struct {
	eng *engine.Engine
}

func newReference(ds *types.Dataset) *reference {
	st := storage.New(storage.Options{DisablePruning: true, DisableIndexes: true})
	st.Ingest(ds)
	return &reference{eng: engine.New(st, engine.Options{Strategy: engine.StrategyBigJoin})}
}

func (r *reference) rows(ctx context.Context, text string) ([][]string, error) {
	res, err := r.eng.QueryContext(ctx, text)
	if err != nil {
		return nil, fmt.Errorf("reference: %w\n%s", err, text)
	}
	return res.Rows, nil
}

func (r *reference) request(ctx context.Context, text, base, class string) (*request, error) {
	rows, err := r.rows(ctx, text)
	if err != nil {
		return nil, err
	}
	return &request{text: text, base: base, class: class, want: queries.Canonical(rows)}, nil
}

// corpus is the 27 case-study and 19 behaviour queries.
func corpus() []queries.Query {
	return append(queries.CaseStudy(), queries.Behaviors()...)
}

var (
	agentLine = regexp.MustCompile(`(?m)^agentid = (\d+)$`)
	atLine    = regexp.MustCompile(`(?m)^\(at "([^"]+)"\)$`)
)

// scopeVariants rewrites one corpus text into up to n texts that keep or
// widen its scope: the agent pin kept or widened to `agentid in (orig, k)`,
// the day pin kept or widened to a 2–3-day range containing it. The
// original text is always the first variant.
func scopeVariants(src string, sc workloads.Scale, n int, rng *rand.Rand) []string {
	agents := []string{""}
	if m := agentLine.FindStringSubmatch(src); m != nil {
		orig, _ := strconv.Atoi(m[1])
		for k := 1; k <= sc.Hosts; k++ {
			if k != orig {
				agents = append(agents, fmt.Sprintf("agentid in (%d, %d)", orig, k))
			}
		}
	}
	ranges := []string{""}
	if m := atLine.FindStringSubmatch(src); m != nil {
		for d := 0; d < sc.Days; d++ {
			if gen.DateStr(d) != m[1] {
				continue
			}
			for a := max(0, d-2); a <= d; a++ {
				for b := max(d, a+1); b <= min(sc.Days-1, a+2); b++ {
					ranges = append(ranges, fmt.Sprintf(`(from "%s" to "%s")`, gen.DateStr(a), gen.DateStr(b)))
				}
			}
		}
	}
	type scope struct{ agent, days string }
	var scopes []scope
	for _, a := range agents {
		for _, r := range ranges {
			if a != "" || r != "" {
				scopes = append(scopes, scope{a, r})
			}
		}
	}
	rng.Shuffle(len(scopes), func(i, j int) { scopes[i], scopes[j] = scopes[j], scopes[i] })
	out := []string{src}
	for _, s := range scopes[:min(len(scopes), n-1)] {
		text := src
		if s.agent != "" {
			text = agentLine.ReplaceAllLiteralString(text, s.agent)
		}
		if s.days != "" {
			text = atLine.ReplaceAllLiteralString(text, s.days)
		}
		out = append(out, text)
	}
	return out
}

// source yields a mix component's requests in order.
type source interface {
	next() *request
}

// epochs replays a fixed set of requests: each epoch visits every request
// once in a fresh seeded order, and after any request the same text is
// sent again with probability repeat. Sampling without replacement keeps
// the mix of cheap and expensive texts the same in every window.
type epochs struct {
	reqs   []*request
	order  []int
	pos    int
	repeat float64
	prev   *request
	rng    *rand.Rand
}

func (e *epochs) next() *request {
	if e.prev != nil && e.rng.Float64() < e.repeat {
		return e.prev
	}
	if e.pos == len(e.order) {
		e.order = e.rng.Perm(len(e.reqs))
		e.pos = 0
	}
	e.prev = e.reqs[e.order[e.pos]]
	e.pos++
	return e.prev
}

// mix interleaves sources: of every cycle of requests, each component
// supplies its slots, spread evenly.
type mix struct {
	sources []source
	pattern []int // component index per position in the cycle
	pos     int
}

func newMix(entries []workloads.MixEntry, sources []source) *mix {
	m := &mix{sources: sources}
	// Largest-remainder interleave: at each position emit the component
	// furthest behind its share.
	total := 0
	for _, e := range entries {
		total += e.Slots
	}
	given := make([]int, len(entries))
	for p := 0; p < total; p++ {
		best, bestLag := 0, -1.0
		for i, e := range entries {
			lag := float64(e.Slots)*float64(p+1)/float64(total) - float64(given[i])
			if lag > bestLag {
				best, bestLag = i, lag
			}
		}
		given[best]++
		m.pattern = append(m.pattern, best)
	}
	return m
}

func (m *mix) next() *request {
	r := m.sources[m.pattern[m.pos%len(m.pattern)]].next()
	m.pos++
	return r
}

// superset is one hunt template × fragment answered by the reference with
// no range and no threshold, its filter columns parsed once.
type superset struct {
	rows   [][]string
	times  [][]int64 // per TimeCols entry
	amount []int64
	x      []float64
}

// replay walks a fixed list of requests in order, wrapping at the end.
type replay struct {
	reqs []*request
	pos  int
}

func (p *replay) next() *request {
	r := p.reqs[p.pos%len(p.reqs)]
	p.pos++
	return r
}

// hunts generates unique hunt texts and derives each one's expected rows
// from its template's superset.
type hunts struct {
	ctx       context.Context
	templates []workloads.HuntTemplate
	ref       *reference
	sets      map[string]*superset
	seen      map[string]bool
	rng       *rand.Rand
	days      int
	// boundary is the first hot day: ranges are hot-only at or after it,
	// cold-only before it, mixed across it.
	boundary int
	class    string
	n        int
}

var tiers = []string{"hot", "cold", "mixed"}

const minute = 60 * 1000

// fmtMinute renders a unix-ms time at the minute granularity AIQL range
// literals accept.
func fmtMinute(t int64) string {
	return time.UnixMilli(t).UTC().Format("01/02/2006 15:04")
}

// pickRange draws a range of the given tier and kind and returns its AIQL
// clause and the half-open [from, to) interval it denotes.
func (h *hunts) pickRange(tier, kind string) (string, int64, int64) {
	const day = 24 * 60 * minute
	b := h.boundary
	if kind == "days" {
		a, z := b, h.days-1 // hot: the hot days
		switch tier {
		case "cold":
			// Two cold days when there are two, so that cold and mixed
			// ranges cover the same span.
			a = h.rng.Intn(max(1, b-1))
			z = min(a+1, b-1)
		case "mixed":
			a, z = b-1, b
		}
		if a == z {
			return fmt.Sprintf(`(at "%s")`, gen.DateStr(a)), gen.DayStart(a), gen.DayStart(a) + day
		}
		return fmt.Sprintf(`(from "%s" to "%s")`, gen.DateStr(a), gen.DateStr(z)), gen.DayStart(a), gen.DayStart(z) + day
	}
	var from, to int64
	slack := func(hours int) int64 { return int64(h.rng.Intn(hours*60)) * minute }
	switch tier {
	case "hot":
		from = gen.DayStart(b) + slack(6)
		to = gen.DayStart(h.days) - slack(6)
	case "cold":
		a := h.rng.Intn(b)
		z := min(b, a+1+h.rng.Intn(2))
		from = gen.DayStart(a) + slack(6)
		to = gen.DayStart(z) - slack(6)
	default:
		from = gen.DayStart(b-1) + slack(12)
		to = gen.DayStart(b+1) - slack(12)
	}
	// The end literal is inclusive of its minute.
	return fmt.Sprintf(`(from "%s" to "%s")`, fmtMinute(from), fmtMinute(to-minute)), from, to
}

func (h *hunts) superset(t *workloads.HuntTemplate, frag, rangeClause string) (*superset, error) {
	text := strings.NewReplacer("{frag}", frag, "{range}", rangeClause).Replace(t.Superset)
	if s, ok := h.sets[text]; ok {
		return s, nil
	}
	rows, err := h.ref.rows(h.ctx, text)
	if err != nil {
		return nil, err
	}
	s := &superset{rows: rows}
	for _, c := range t.TimeCols {
		col := make([]int64, len(rows))
		for i, r := range rows {
			if col[i], err = strconv.ParseInt(r[c], 10, 64); err != nil {
				return nil, fmt.Errorf("hunt %s: time column %d: %w", t.Name, c, err)
			}
		}
		s.times = append(s.times, col)
	}
	if t.Amount != nil {
		s.amount = make([]int64, len(rows))
		for i, r := range rows {
			if s.amount[i], err = strconv.ParseInt(r[t.AmountCol], 10, 64); err != nil {
				return nil, fmt.Errorf("hunt %s: amount column: %w", t.Name, err)
			}
		}
	}
	if t.X != nil {
		s.x = make([]float64, len(rows))
		for i, r := range rows {
			if s.x[i], err = strconv.ParseFloat(r[t.XCol], 64); err != nil {
				return nil, fmt.Errorf("hunt %s: x column: %w", t.Name, err)
			}
		}
	}
	h.sets[text] = s
	return s, nil
}

// generate builds one unique hunt: template and tier rotate, fragment,
// threshold and range come from the seed.
func (h *hunts) generate() (*request, error) {
	t := &h.templates[h.n%len(h.templates)]
	tier := tiers[h.n%len(tiers)]
	h.n++
	for {
		frag := t.Frags[h.rng.Intn(len(t.Frags))]
		clause, from, to := h.pickRange(tier, t.Range)
		var amount int64
		var x float64
		repl := []string{"{frag}", frag, "{range}", clause}
		if t.Amount != nil {
			amount = int64(t.Amount[0] + h.rng.Intn(t.Amount[1]-t.Amount[0]+1))
			repl = append(repl, "{amount}", strconv.FormatInt(amount, 10))
		}
		if t.X != nil {
			// Two decimals, never a whole number: the compared column holds
			// integers, so no row sits on the threshold.
			x = float64(int(t.X[0]*100)+h.rng.Intn(int((t.X[1]-t.X[0])*100))) / 100
			if x == float64(int64(x)) {
				x += 0.01
			}
			repl = append(repl, "{x}", strconv.FormatFloat(x, 'f', 2, 64))
		}
		text := strings.NewReplacer(repl...).Replace(t.Text)
		if h.seen[text] {
			continue
		}
		h.seen[text] = true
		supClause := ""
		if t.Range == "days" {
			supClause = clause
		}
		s, err := h.superset(t, frag, supClause)
		if err != nil {
			return nil, err
		}
		var want [][]string
	rows:
		for i, row := range s.rows {
			for _, col := range s.times {
				if col[i] < from || col[i] >= to {
					continue rows
				}
			}
			if s.amount != nil && s.amount[i] <= amount {
				continue
			}
			if s.x != nil && s.x[i] <= x {
				continue
			}
			want = append(want, row)
		}
		return &request{text: text, base: t.Name, class: h.class, tier: tier, want: queries.Canonical(want)}, nil
	}
}
