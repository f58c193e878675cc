package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metric families and renders them in the
// Prometheus text exposition format (version 0.0.4). It is hand-rolled on
// the standard library: counters and gauges are atomics, histograms are
// fixed cumulative buckets, and *Func variants read their value at scrape
// time — the export path over the stats the subsystems maintain
// (storage.ScanStats, DurabilityStats, cache and streaming counters). A
// server's registry is the one definition of what it exports: /metrics
// serves WriteTo's text, /stats the same samples as JSON.
//
// Metric names are validated at registration: snake_case, with the unit
// suffix conventions the obsreg analyzer also enforces statically —
// counters end in _total, histograms in _seconds or _bytes, gauges in
// _seconds, _bytes, _ratio or _count. Registering the same name twice
// panics: every series must have exactly one owner.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted registration names for stable exposition
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its series (one for unlabeled metrics,
// one per label-value tuple for vecs).
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]collectable // key: rendered label part
	// fn, when set, emits the family's series at scrape time instead.
	fn func(emit func(labels []string, v float64))
}

type collectable interface {
	// write appends the series' sample lines; labelPart is the rendered
	// {k="v",...} fragment ("" when unlabeled).
	write(b *strings.Builder, name, labelPart string)
}

// register validates and installs a new family, panicking on a duplicate
// or malformed name — both are programming errors, not runtime conditions.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !snakeCase(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	if !unitSuffixed(name, typ) {
		panic(fmt.Sprintf("obs: %s %q lacks its unit suffix (counters _total; histograms _seconds/_bytes; gauges _seconds/_bytes/_ratio/_count)", typ, name))
	}
	for _, l := range labels {
		if !snakeCase(l) {
			panic(fmt.Sprintf("obs: label name %q is not snake_case", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, series: make(map[string]collectable)}
	r.families[name] = f
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return f
}

func snakeCase(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

func unitSuffixed(name, typ string) bool {
	switch typ {
	case "counter":
		return strings.HasSuffix(name, "_total")
	case "histogram":
		return strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_bytes")
	default: // gauge
		return strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_bytes") ||
			strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_count")
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be non-negative; negative deltas are dropped to keep
// the series monotonic).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.v, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.v.Load()) }

func (c *Counter) write(b *strings.Builder, name, labelPart string) {
	sample(b, name, labelPart, c.Value())
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add adjusts the value by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.v, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *Gauge) write(b *strings.Builder, name, labelPart string) {
	sample(b, name, labelPart, g.Value())
}

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// DefBuckets are the default histogram buckets, tuned for request
// latencies in seconds: 0.5ms to 10s.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound; +Inf is implied by count
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) write(b *strings.Builder, name, labelPart string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		sample(b, name+"_bucket", mergeLabels(labelPart, `le="`+le+`"`), float64(cum))
	}
	total := h.count.Load()
	sample(b, name+"_bucket", mergeLabels(labelPart, `le="+Inf"`), float64(total))
	sample(b, name+"_sum", labelPart, math.Float64frombits(h.sum.Load()))
	sample(b, name+"_count", labelPart, float64(total))
}

// funcSeries reads its value at scrape time.
type funcSeries struct{ fn func() float64 }

func (s funcSeries) write(b *strings.Builder, name, labelPart string) {
	sample(b, name, labelPart, s.fn())
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterFunc registers a counter whose value is read at scrape time —
// the export path for counters another subsystem already maintains.
// fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter", nil)
	f.series[""] = funcSeries{fn}
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.series[""] = funcSeries{fn}
}

// Histogram registers a histogram with the given bucket upper bounds
// (DefBuckets when empty). Bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := r.register(name, help, "histogram", nil)
	h := &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets))}
	f.series[""] = h
	return h
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// With returns the counter for the given label values (created on first
// use). The value count must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	c, _ := v.f.child(values, func() collectable { return &Counter{} })
	return c.(*Counter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{f: r.register(name, help, "gauge", labels)}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	g, _ := v.f.child(values, func() collectable { return &Gauge{} })
	return g.(*Gauge)
}

// GaugeVecFunc registers a labeled gauge family whose series are produced
// at scrape time: fn calls emit once per series. Used for series whose
// label set is dynamic (per-shard replication watermarks).
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func(emit func(values []string, v float64))) {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVecFunc %q needs at least one label", name))
	}
	f := r.register(name, help, "gauge", labels)
	f.fn = fn
}

func (f *family) child(values []string, make func() collectable) (collectable, string) {
	key := f.labelPart(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c, key
	}
	c := make()
	f.series[key] = c
	return c, key
}

// labelPart renders `k1="v1",k2="v2"` for the family's label names.
func (f *family) labelPart(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	var b strings.Builder
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func mergeLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

func sample(b *strings.Builder, name, labelPart string, v float64) {
	b.WriteString(name)
	if labelPart != "" {
		b.WriteByte('{')
		b.WriteString(labelPart)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// WriteTo renders every family in the text exposition format, sorted by
// metric name for a stable scrape.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		if f.fn != nil {
			f.fn(func(values []string, v float64) {
				sample(&b, f.name, f.labelPart(values), v)
			})
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]collectable, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			series[i].write(&b, f.name, k)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// ServeHTTP serves the registry as a Prometheus scrape target.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}
