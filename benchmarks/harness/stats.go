package harness

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Metric is one reported number. Samples is how many observations it
// summarises (0 for a plain count or a single measurement).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics collects named results.
type metrics map[string]Metric

func (m metrics) set(name, unit string, v float64, samples int) {
	m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// dist records a latency distribution's p50/p95 under prefix.
func (m metrics) dist(prefix string, xs []float64) {
	m.set(prefix+"_p50_ms", "ms", median(xs), len(xs))
	m.set(prefix+"_p95_ms", "ms", percentile(xs, 0.95), len(xs))
}
