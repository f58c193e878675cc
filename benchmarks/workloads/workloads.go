// Package workloads holds the ledger's workload definitions as data: what
// each workload loads, how it is driven and why it exists. The harness
// reads them; nothing about a workload's shape is decided in Go code.
package workloads

import (
	"embed"
	"encoding/json"
	"fmt"
)

//go:embed *.json
var files embed.FS

// Names lists the workloads in the order the ledger runs and reports them.
var Names = []string{"apt_hot", "hunt_tiered", "ingest_mixed", "cluster_r2"}

// Scale is a gen.Scenario size.
type Scale struct {
	Hosts            int `json:"hosts"`
	Days             int `json:"days"`
	EventsPerHostDay int `json:"events_per_host_day"`
}

// Definition is one workload file.
type Definition struct {
	Name string `json:"name"`
	// Why is the one sentence that justifies the workload's existence.
	Why string `json:"why"`
	// Topology is "memory" (one in-memory aiqld), "durable" (one aiqld with
	// -data-dir) or "cluster" (coordinator + in-memory workers).
	Topology string `json:"topology"`
	// Flags are the aiqld flags of the incarnation that serves the window.
	Flags []string `json:"flags"`
	// Scale is the dataset size.
	Scale Scale `json:"scale"`
	// Smoke overlays the definition at the self-test scale: any field it
	// names replaces the committed value.
	Smoke json.RawMessage `json:"smoke"`
	// Loop documents how the window is driven; the harness implements it.
	Loop string `json:"loop"`
	// LoadBatchEvents is the closed-loop bulk-load batch size.
	LoadBatchEvents int `json:"load_batch_events"`
	// SetupRepeats is how many times set-up's daemon bring-up (spawn, load,
	// compact, restart) is performed per run; setup_s reports the median.
	SetupRepeats int `json:"setup_repeats"`
	// ReadyCycles is how many SIGKILL → /readyz cycles ready_s is the
	// median of (durable topologies).
	ReadyCycles int `json:"ready_cycles,omitempty"`
	// Mix is the request stream: a cycle has as many requests as the
	// entries' slots add up to, each entry supplying its slots.
	Mix []MixEntry `json:"mix"`
	// VariantsPerQuery is how many scope variants each corpus query gets;
	// RepeatShare is the share of requests that repeat the previous text.
	VariantsPerQuery int     `json:"variants_per_query,omitempty"`
	RepeatShare      float64 `json:"repeat_share,omitempty"`
	// ColdDays is how many leading days are compacted to segments before
	// the window (durable topologies); the remaining days stay hot.
	ColdDays int `json:"cold_days,omitempty"`
	// Stream configures the open-loop writer of ingest_mixed.
	Stream *Stream `json:"stream,omitempty"`
	// Cluster configures the cluster topology.
	Cluster *Cluster `json:"cluster,omitempty"`
}

// MixEntry is one component of a request mix.
type MixEntry struct {
	// Kind is "variants" (scope variants of the corpus), "hunts" (the hunt
	// templates) or "corpus" (the 46 texts verbatim).
	Kind string `json:"kind"`
	// Class labels the component in per-class latency metrics.
	Class string `json:"class"`
	// Slots is how many requests of every cycle come from this component.
	Slots int `json:"slots"`
}

// Stream is the open-loop writer and the standing rules it feeds.
type Stream struct {
	EventsPerSec    int    `json:"events_per_sec"`
	BatchEvents     int    `json:"batch_events"`
	WalFlushMs      int    `json:"wal_flush_ms"`
	CompactInterval string `json:"compact_interval"`
	// CorpusRules are corpus query ids registered as standing rules with
	// their day pin removed (a standing rule looks forward, not at one
	// past day); Watch is the one rule with a subscriber.
	CorpusRules []string `json:"corpus_rules"`
	Watch       string   `json:"watch"`
}

// Cluster is the coordinator's shape.
type Cluster struct {
	Workers   int    `json:"workers"`
	Replicas  int    `json:"replicas"`
	Placement string `json:"placement"`
}

// HuntTemplate is one parameterised hunt query. Text and Superset use
// {range}, {frag}, {amount} and {x} placeholders. The reference engine
// answers Superset (no time range, no threshold) once per fragment; each
// generated text's expected rows are the superset rows that pass the
// range and threshold filters, evaluated by the harness on the columns
// named here — so every unique text is checked without running the
// reference once per text.
type HuntTemplate struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	Text     string   `json:"text"`
	Superset string   `json:"superset"`
	Frags    []string `json:"frags"`
	// Range is "minutes" (a from…to range with minute-granular ends, any
	// span) or "days" (whole days only: the superset then includes the
	// range, because sliding windows align to it).
	Range string `json:"range"`
	// TimeCols are the superset columns holding event start times (ms);
	// every one must fall inside the range.
	TimeCols []int `json:"time_cols,omitempty"`
	// Amount is the [lo, hi] range {amount} is drawn from; AmountCol the
	// column that must exceed it.
	Amount    []int `json:"amount,omitempty"`
	AmountCol int   `json:"amount_col,omitempty"`
	// X is the [lo, hi] range {x} (two decimals) is drawn from; XCol the
	// column that must exceed it.
	X    []float64 `json:"x,omitempty"`
	XCol int       `json:"x_col,omitempty"`
}

// Layer is one per-layer metric and the end-to-end metric it is expected
// to move: the machine-readable form of ISSUE 11's attribution table.
type Layer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Source is "span", "prom", "probe" or "client".
	Source string `json:"source"`
	// Moves lists (end-to-end metric, workload) pairs this layer metric
	// should move; on every other workload the prediction is no change.
	Moves []Move `json:"moves"`
	// Bound, when set, is the regression bound ledgerdiff applies to this
	// metric on the workloads in Moves: client-observed metrics that only
	// some workloads have, which BENCHMARK.json's one-list-for-all
	// end_to_end section cannot carry.
	Bound float64 `json:"bound,omitempty"`
}

// Move is one predicted effect.
type Move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

func load(name string, v any) error {
	raw, err := files.ReadFile(name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("workloads/%s: %w", name, err)
	}
	return nil
}

// Load returns the named workload's definition, at the committed scale or
// with its smoke overlay applied.
func Load(name string, smoke bool) (*Definition, error) {
	var d Definition
	if err := load(name+".json", &d); err != nil {
		return nil, err
	}
	if d.Name != name {
		return nil, fmt.Errorf("workloads/%s.json: name is %q", name, d.Name)
	}
	if smoke {
		if err := json.Unmarshal(d.Smoke, &d); err != nil {
			return nil, fmt.Errorf("workloads/%s.json: smoke: %w", name, err)
		}
	}
	return &d, nil
}

// Hunts returns the hunt templates.
func Hunts() ([]HuntTemplate, error) {
	var h []HuntTemplate
	err := load("hunts.json", &h)
	return h, err
}

// Layers returns the per-layer metric table.
func Layers() ([]Layer, error) {
	var l []Layer
	err := load("layers.json", &l)
	return l, err
}
