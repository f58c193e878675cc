// Package harness is the service ledger's load generator: it spawns real
// aiqld processes, drives them over HTTP from this one process, checks
// every answer against an in-process reference, and reports client-side
// end-to-end metrics and per-module attribution.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"aiql/benchmarks/workloads"
	"aiql/internal/queries"
	"aiql/internal/types"
)

// Config is one ledger run: one workload, one pass.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measured window's length.
	Seconds float64
	// Trace selects the traced pass: the window's first part runs untraced
	// (the baseline for the tracing overhead), the rest with ?trace=1, and
	// the per-layer metrics — span aggregates, /metrics deltas, in-process
	// probes — are reported instead of the end-to-end ones.
	Trace bool
	// Smoke selects the self-test scale.
	Smoke bool
	// Aiqld is the daemon binary; WorkDir holds the run's scratch state;
	// ResultsDir (traced pass) receives trace_<workload>.json.
	Aiqld, WorkDir, ResultsDir string
	// Log receives progress lines.
	Log io.Writer

	// corrupt, set by the self-test, alters one expected row so the run
	// must report a failed operation.
	corrupt bool
}

// Result is one run's outcome.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

// EndToEnd names the end-to-end metrics, in report order. Every workload
// reports every one of them in the untraced pass.
var EndToEnd = []string{
	"setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s",
	"ingest_events_per_s", "rss_peak_mb",
}

// run is the state one workload run threads through its phases.
type run struct {
	cfg Config
	def *workloads.Definition
	env *env
	ctx context.Context
	res *Result
	m   metrics

	ds       *Dataset
	stream   source
	warm     []*request
	distinct []*request // every distinct request, for the probes

	readyMs []float64 // every SIGKILL → /readyz cycle
	loadEPS []float64 // bulk-load events/s, one per fifth of each bring-up's load

	// serving state of the current bring-up
	front    *daemon   // where queries and ingests go
	workers  []*daemon // cluster workers (empty otherwise)
	dataDir  string
	bringUps int
	loaded   int // events acknowledged so far
}

func (r *run) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "[%s] "+format+"\n", append([]any{r.cfg.Workload}, args...)...)
	}
}

// attempt records one checked operation.
func (r *run) attempt(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		if len(r.res.Failures) < 8 {
			r.res.Failures = append(r.res.Failures, err.Error())
		}
	}
}

// Run executes one workload pass and returns its result. A returned error
// means the harness could not complete the run (a daemon did not start, a
// definition is malformed); wrong answers are counted in the result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	def, err := workloads.Load(cfg.Workload, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	var layers []workloads.Layer
	if cfg.Trace {
		if layers, err = workloads.Layers(); err != nil {
			return nil, err
		}
	}
	e, err := newEnv(ctx, cfg.Aiqld, cfg.WorkDir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &run{
		cfg: cfg, def: def, env: e, ctx: ctx, m: make(metrics),
		res: &Result{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace},
	}
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(
		"%d daemon process(es) and the load generator share %d cores", r.daemonCount(), runtime.NumCPU()))

	t0 := now()
	if err := r.buildInputs(); err != nil {
		return nil, err
	}
	inputsS := now().Sub(t0).Seconds()
	r.logf("inputs ready in %.2fs: %d events, %d distinct texts", inputsS, len(r.ds.All.Events), len(r.distinct))

	repeats := max(1, def.SetupRepeats)
	if cfg.Trace || cfg.Smoke {
		repeats = 1 // setup_s is an end-to-end metric: only the untraced pass needs its median
	}
	var bringUps []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			r.tearDown()
		}
		t := now()
		if err := r.bringUp(); err != nil {
			return nil, err
		}
		bringUps = append(bringUps, now().Sub(t).Seconds())
		r.logf("bring-up %d/%d: %.2fs", i+1, repeats, bringUps[i])
	}
	r.m.set("setup_s", "s", inputsS+median(bringUps), len(bringUps))
	if len(r.readyMs) > 0 {
		r.m.set("ready_s", "s", median(r.readyMs)/1000, len(r.readyMs))
	}
	r.m.set("ingest_events_per_s", "1/s", median(r.loadEPS), len(r.loadEPS))
	r.logf("bulk-load parts, events/s: %.0f", r.loadEPS)

	if err := r.window(); err != nil {
		return nil, err
	}
	if cfg.Trace {
		if err := r.probes(); err != nil {
			return nil, err
		}
	}
	r.res.Correct = r.res.Failed == 0
	r.res.Metrics = r.selectMetrics(layers)
	return r.res, nil
}

func (r *run) daemonCount() int {
	if r.def.Cluster != nil {
		return r.def.Cluster.Workers + 1
	}
	return 1
}

// selectMetrics keeps the pass's metric set: the end-to-end list untraced,
// the per-layer table traced (a layer metric the workload does not
// exercise reads 0).
func (r *run) selectMetrics(layers []workloads.Layer) metrics {
	out := make(metrics)
	if !r.cfg.Trace {
		for _, name := range EndToEnd {
			out[name] = r.m[name]
		}
		return out
	}
	for _, l := range layers {
		mt := r.m[l.Name]
		mt.Unit = l.Unit
		out[l.Name] = mt
	}
	return out
}

// buildInputs generates everything the run sends and expects, from the
// seed alone: the dataset, the request stream and the reference answers.
func (r *run) buildInputs() error {
	sc := r.def.Scale
	if st := r.def.Stream; st != nil {
		// Append as many days as the open-loop writer can stream in the
		// window, plus one of margin.
		perDay := float64(sc.Hosts * sc.EventsPerHostDay)
		sc.Days += int(r.cfg.Seconds*float64(st.EventsPerSec)/perDay) + 1
	}
	r.ds = generate(sc, r.cfg.Seed)
	// The reference holds the bulk-loaded days: no query text reaches into
	// the days ingest_mixed streams. It is released when this function
	// returns, so the load generator's heap is small in the window.
	ref := newReference(types.NewDataset(r.ds.All.Entities, r.ds.days(0, r.def.Scale.Days)))

	rng := rand.New(rand.NewSource(r.cfg.Seed))
	var sources []source
	for _, entry := range r.def.Mix {
		var reqs []*request
		switch entry.Kind {
		case "variants", "corpus":
			for _, q := range corpus() {
				texts := []string{q.Src}
				if entry.Kind == "variants" {
					texts = scopeVariants(q.Src, r.def.Scale, r.def.VariantsPerQuery, rng)
				}
				for _, text := range texts {
					req, err := ref.request(r.ctx, text, q.ID, entry.Class)
					if err != nil {
						return err
					}
					reqs = append(reqs, req)
				}
			}
			sources = append(sources, &epochs{reqs: reqs, repeat: r.def.RepeatShare, rng: rand.New(rand.NewSource(rng.Int63()))})
			r.warm = append(r.warm, reqs[:min(len(reqs), 46)]...)
		case "hunts":
			templates, err := workloads.Hunts()
			if err != nil {
				return err
			}
			boundary := r.def.ColdDays
			if boundary <= 0 || boundary >= sc.Days {
				boundary = sc.Days - 1
			}
			h := &hunts{
				ctx: r.ctx, templates: templates, ref: ref, class: entry.Class,
				sets: make(map[string]*superset), seen: make(map[string]bool),
				rng: rand.New(rand.NewSource(rng.Int63())), days: sc.Days, boundary: boundary,
			}
			// Enough unique texts that the window never wraps: hunts take
			// milliseconds each.
			rotation := len(templates) * len(tiers)
			for n := int(r.cfg.Seconds*500) + 2*rotation; n > 0; n-- {
				req, err := h.generate()
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			// Warm-up consumes the first rotation, so the window's texts
			// are all first-time texts.
			r.warm = append(r.warm, reqs[:rotation]...)
			sources = append(sources, &replay{reqs: reqs, pos: rotation})
		default:
			return fmt.Errorf("workload %s: unknown mix kind %q", r.def.Name, entry.Kind)
		}
		r.distinct = append(r.distinct, reqs...)
	}
	if r.cfg.corrupt {
		r.warm[0].want += "\x1ecorrupted"
	}
	r.stream = newMix(r.def.Mix, sources)
	return nil
}

// window runs the measured window and reports its metrics.
func (r *run) window() error {
	// The load generator shares the cores with the daemons: collect its
	// set-up garbage now, keep its collector quiet while measuring, and run
	// it on one P so that it never occupies both cores.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := dial(r.front.url)
	defer c.close()
	for _, req := range r.warm {
		_, _, err := r.check(c, req, false)
		r.attempt(err)
	}
	before, err := r.scrapeAll()
	if err != nil {
		return err
	}
	total := time.Duration(r.cfg.Seconds * float64(time.Second))
	// plain is the untraced part of the window — all of it in the untraced
	// pass — and the source of every client-side number; traced is the rest.
	var plain, traced windowStats
	var side *streamSide
	t0 := now()
	if r.def.Stream != nil {
		if side, err = r.startStream(t0, total); err != nil {
			return err
		}
	}
	untraced := total
	if r.cfg.Trace {
		untraced = total * 3 / 10
	}
	r.drive(c, t0.Add(untraced), false, &plain)
	plainS := now().Sub(t0).Seconds()
	if r.cfg.Trace {
		r.drive(c, t0.Add(total), true, &traced)
	}
	elapsed := now().Sub(t0).Seconds()
	r.m.set("rss_peak_mb", "MB", r.env.peakRSSMB(), 0)
	if side != nil {
		if err := side.finish(r); err != nil {
			return err
		}
	}
	after, err := r.scrapeAll()
	if err != nil {
		return err
	}

	p50, p95, qps := plain.sliced(t0, plainS)
	r.m.set("query_p50_ms", "ms", p50, len(plain.lat))
	r.m.set("query_p95_ms", "ms", p95, len(plain.lat))
	r.m.set("queries_per_s", "1/s", qps, plain.done)
	r.m.set("client.query_p99_ms", "ms", percentile(plain.lat, 0.99), len(plain.lat))
	r.m.set("client.http_overhead_ms", "ms", median(plain.overhead), len(plain.overhead))
	for class, xs := range plain.byClass {
		r.m.set("client."+class+"_p50_ms", "ms", median(xs), len(xs))
	}
	for tier, xs := range plain.byTier {
		name := tier + "_only"
		if tier == "mixed" {
			name = "mixed"
		}
		r.m.set("storage."+name+"_p50_ms", "ms", median(xs), len(xs))
	}
	if r.cfg.Trace {
		r.m.set("obs.trace_overhead_ratio", "ratio", ratio(median(traced.lat), median(plain.lat)), len(traced.lat))
		traced.spans.report(r.m)
		r.promMetrics(before, after, elapsed)
		if err := r.writeTraces(traced.traces); err != nil {
			return err
		}
	}
	r.logf("window: %d queries in %.2fs, p50 %.3f ms, p95 %.3f ms, %d/%d failed",
		plain.done+traced.done, elapsed, p50, p95, r.res.Failed, r.res.Attempted)
	r.logf("window slices: %s", plain.sliceLog)
	if r.def.Topology == "durable" {
		if err := r.afterDurable(side); err != nil {
			return err
		}
	}
	return nil
}

// windowStats accumulates one window's client-side samples.
type windowStats struct {
	lat, overhead   []float64
	end             []time.Time // when each sample in lat completed
	byClass, byTier map[string][]float64
	done            int
	spans           spanAgg
	traces          []*tracedQuery
	sliceLog        string // the per-slice numbers behind sliced's medians
}

// windowSlices is how many equal time slices the end-to-end query metrics
// are computed over. Each slice yields its own p50, p95 and rate and the
// ledger reports the median slice: on a shared machine a neighbour's burst
// lands in a few slices and leaves the median slice alone, where it would
// shift a percentile pooled over the whole window.
const windowSlices = 8

// sliced returns the median slice's p50, p95 and completed queries per
// second, for a window that started at t0 and lasted seconds.
func (w *windowStats) sliced(t0 time.Time, seconds float64) (p50, p95, qps float64) {
	width := seconds / windowSlices
	slices := make([][]float64, windowSlices)
	for i, l := range w.lat {
		k := min(int(w.end[i].Sub(t0).Seconds()/width), windowSlices-1)
		slices[k] = append(slices[k], l)
	}
	var p50s, p95s, rates []float64
	for _, xs := range slices {
		p50s = append(p50s, median(xs))
		p95s = append(p95s, percentile(xs, 0.95))
		rates = append(rates, float64(len(xs))/width)
	}
	w.sliceLog = fmt.Sprintf("p50 %.3f p95 %.3f 1/s %.0f", p50s, p95s, rates)
	return median(p50s), median(p95s), median(rates)
}

// maxRawTraces bounds the span trees kept verbatim for the trace file; the
// aggregates cover every traced query regardless.
const maxRawTraces = 512

// check sends one request and verifies the reply against the reference.
func (r *run) check(c *conn, req *request, traced bool) (*queryReply, time.Duration, error) {
	reply, lat, err := c.query(req.text, traced)
	if err != nil {
		return nil, 0, err
	}
	if got := queries.Canonical(reply.Rows); got != req.want {
		return nil, 0, fmt.Errorf("rows differ from the reference (%d rows returned) for:\n%s", len(reply.Rows), req.text)
	}
	return reply, lat, nil
}

// drive is the closed loop: one request at a time until the deadline.
func (r *run) drive(c *conn, until time.Time, traced bool, w *windowStats) {
	if w.byClass == nil {
		w.byClass, w.byTier = make(map[string][]float64), make(map[string][]float64)
	}
	for now().Before(until) && r.ctx.Err() == nil {
		req := r.stream.next()
		reply, lat, err := r.check(c, req, traced)
		r.attempt(err)
		if err != nil {
			continue
		}
		w.done++
		l := ms(lat)
		w.lat = append(w.lat, l)
		w.end = append(w.end, now())
		w.overhead = append(w.overhead, l-reply.ElapsedMs)
		w.byClass[req.class] = append(w.byClass[req.class], l)
		if req.tier != "" {
			w.byTier[req.tier] = append(w.byTier[req.tier], l)
		}
		if traced && reply.Trace != nil {
			q := &tracedQuery{
				Base: req.base, Class: req.class, Tier: req.tier, ClientMs: l, ServerMs: reply.ElapsedMs,
				Rows: len(reply.Rows), TraceID: reply.Trace.ID, Spans: reply.Trace.Spans,
			}
			w.spans.add(q)
			if len(w.traces) < maxRawTraces {
				w.traces = append(w.traces, q)
			}
		}
	}
}

// writeTraces writes the traced pass's span trees, once, at the end.
func (r *run) writeTraces(traces []*tracedQuery) error {
	if r.cfg.ResultsDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.ResultsDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{
		"workload": r.cfg.Workload, "seed": r.cfg.Seed, "queries": traces,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.ResultsDir, "trace_"+r.cfg.Workload+".json"), raw, 0o644)
}

// scrapeAll scrapes the front daemon and every worker.
func (r *run) scrapeAll() ([]prom, error) {
	out := make([]prom, 0, 1+len(r.workers))
	for _, d := range append([]*daemon{r.front}, r.workers...) {
		p, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// promMetrics reports the [prom] layer metrics: /metrics deltas over the
// window. Server and cluster series come from the front daemon; store,
// WAL and stream series are summed over the daemons that hold data.
func (r *run) promMetrics(before, after []prom, seconds float64) {
	front := func(name string) float64 { return after[0][name] - before[0][name] }
	data := func(name string) float64 {
		var d float64
		for i := range after {
			d += after[i][name] - before[i][name]
		}
		return d
	}
	gauge := func(name string) float64 {
		var v float64
		for i := range after {
			v += after[i][name]
		}
		return v
	}
	queries := front("aiql_queries_total")
	r.m.set("server.plan_cache_hit_ratio", "ratio", ratio(front("aiql_plan_cache_hits_total"),
		front("aiql_plan_cache_hits_total")+front("aiql_plan_cache_misses_total")), int(queries))
	r.m.set("server.result_cache_hit_ratio", "ratio", ratio(front("aiql_result_cache_hits_total"),
		front("aiql_result_cache_hits_total")+front("aiql_result_cache_misses_total")), int(queries))
	r.m.set("server.query_handler_ms", "ms", 1000*ratio(front("aiql_query_duration_seconds_sum"),
		front("aiql_query_duration_seconds_count")), int(front("aiql_query_duration_seconds_count")))
	r.m.set("server.ingest_handler_ms", "ms", 1000*ratio(front("aiql_ingest_duration_seconds_sum"),
		front("aiql_ingest_duration_seconds_count")), int(front("aiql_ingest_duration_seconds_count")))

	r.m.set("storage.blocks_decoded_per_query", "count", ratio(data("aiql_scan_blocks_decoded_total"), queries), int(queries))
	r.m.set("storage.blocks_skipped_ratio", "ratio", ratio(data("aiql_scan_blocks_skipped_total"),
		data("aiql_scan_blocks_considered_total")), int(data("aiql_scan_blocks_considered_total")))
	r.m.set("storage.attr_zone_skips_per_query", "count", ratio(data("aiql_scan_attr_zone_skips_total"), queries), int(queries))
	r.m.set("storage.compressed_bytes_decoded_per_query", "B", ratio(data("aiql_scan_compressed_bytes_decoded_total"), queries), int(queries))
	r.m.set("storage.hot_batches_per_query", "count", ratio(data("aiql_scan_hot_batches_total"), queries), int(queries))
	r.m.set("storage.thaws", "count", data("aiql_scan_thaws_total"), 0)
	r.m.set("storage.compactions", "count", data("aiql_compactions_total"), 0)
	r.m.set("storage.compaction_busy_share", "ratio", data("aiql_compaction_seconds_total")/seconds, 0)

	fsyncs := data("aiql_wal_fsyncs_total")
	r.m.set("wal.fsyncs", "count", fsyncs, 0)
	r.m.set("wal.fsync_ms_mean", "ms", 1000*ratio(data("aiql_wal_fsync_seconds_total"), fsyncs), int(fsyncs))
	r.m.set("wal.replayed_records", "count", gauge("aiql_wal_replayed_count"), 0)

	r.m.set("stream.emitted", "count", data("aiql_stream_emitted_total"), 0)
	r.m.set("stream.dropped_slow_consumers", "count", data("aiql_stream_dropped_slow_consumers_total"), 0)
	r.m.set("stream.state_buffered", "count", gauge("aiql_stream_state_buffered_count"), 0)
	r.m.set("stream.join_overflows", "count", data("aiql_stream_join_overflows_total"), 0)

	r.m.set("cluster.failovers", "count", front("aiql_cluster_failovers_total"), 0)
	r.m.set("cluster.ingest_retries", "count", front("aiql_cluster_ingest_retries_total"), 0)
	r.m.set("cluster.degraded_ingests", "count", front("aiql_cluster_degraded_ingests_total"), 0)
}

// FormatLine renders the contract's result line: one JSON object with
// exactly correct, attempted, failed and metrics.
func (res *Result) FormatLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(raw)
}

// Table renders the result for people: every metric by name, value, unit
// and sample count.
func (res *Result) Table(names []string) string {
	var b strings.Builder
	pass := "end-to-end (untraced)"
	if res.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(&b, "%s seed %d, %.0fs window, %s: %d/%d operations failed\n",
		res.Workload, res.Seed, res.Seconds, pass, res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-44s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	return b.String()
}
