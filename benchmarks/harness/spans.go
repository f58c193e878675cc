package harness

import (
	"sort"
)

// interval is a span's [start, end) in trace-relative milliseconds.
type interval struct{ a, b float64 }

// covered returns the total length of the union of ivs.
func covered(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, iv := range ivs {
		if i == 0 || iv.a > end {
			total += iv.b - iv.a
			end = iv.b
		} else if iv.b > end {
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

func (s *span) interval() interval { return interval{s.StartMs, s.StartMs + s.DurMs} }

// selfMs is the span's duration minus the part its children cover.
func (s *span) selfMs() float64 {
	ivs := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		iv := c.interval()
		iv.a, iv.b = max(iv.a, s.StartMs), min(iv.b, s.StartMs+s.DurMs)
		if iv.b > iv.a {
			ivs = append(ivs, iv)
		}
	}
	return max(0, s.DurMs-covered(ivs))
}

// walk visits s and every descendant.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// tracedQuery is one traced request as the harness keeps it in memory: its
// own client-side span around the daemon's tree.
type tracedQuery struct {
	Base     string  `json:"base"`
	Class    string  `json:"class"`
	Tier     string  `json:"tier,omitempty"`
	ClientMs float64 `json:"client_ms"`
	ServerMs float64 `json:"server_ms"`
	Rows     int     `json:"rows"`
	TraceID  string  `json:"trace_id"`
	Spans    []*span `json:"spans"`
}

// spanAgg folds span trees into per-query samples of each layer's time and
// counters; the ledger reports their medians.
type spanAgg struct {
	plan, execSelf, join, merge, scan, pin []float64
	pruned, examined                       []float64
	gatherSelf, legMax, legs, shipped      []float64
	unattributed                           []float64
}

func (a *spanAgg) add(q *tracedQuery) {
	var roots, scans []interval
	var plan, exec *span
	var join, merge, gatherSelf, legMax, legs, shipped float64
	var scanned, pruned, examined int64
	sawGather := false
	for _, root := range q.Spans {
		roots = append(roots, root.interval())
		switch root.Name {
		case "plan":
			plan = root
		case "execute":
			exec = root
		}
		root.walk(func(s *span) {
			switch s.Name {
			case "scan":
				scans = append(scans, s.interval())
				scanned += s.Counters["partitions_scanned"]
				pruned += s.Counters["partitions_pruned"]
				examined += s.Counters["rows"]
			case "join":
				join += s.DurMs
			case "merge":
				merge += s.DurMs
			case "gather":
				sawGather = true
				gatherSelf += s.selfMs()
			case "worker":
				legs++
				legMax = max(legMax, s.DurMs)
				shipped += float64(s.Counters["rows"])
			case "snapshot-pin":
				a.pin = append(a.pin, s.DurMs)
			}
		})
	}
	if q.ClientMs > 0 {
		a.unattributed = append(a.unattributed, max(0, q.ClientMs-covered(roots))/q.ClientMs)
	}
	if exec == nil {
		return // answered by the result cache: no engine work to attribute
	}
	if plan != nil {
		a.plan = append(a.plan, plan.DurMs)
		// aiqld pins the snapshot between planning and execution, outside any
		// daemon span: the gap is the harness's own span for it.
		a.pin = append(a.pin, max(0, exec.StartMs-(plan.StartMs+plan.DurMs)))
	}
	a.execSelf = append(a.execSelf, exec.selfMs())
	a.join = append(a.join, join)
	a.merge = append(a.merge, merge)
	a.scan = append(a.scan, covered(scans))
	if scanned+pruned > 0 {
		a.pruned = append(a.pruned, float64(pruned)/float64(scanned+pruned))
	}
	if q.Rows > 0 {
		a.examined = append(a.examined, float64(examined)/float64(q.Rows))
	}
	if sawGather {
		a.gatherSelf = append(a.gatherSelf, gatherSelf)
		a.legMax = append(a.legMax, legMax)
		a.legs = append(a.legs, legs)
		a.shipped = append(a.shipped, shipped)
	}
}

func (a *spanAgg) report(m metrics) {
	m.set("engine.plan_ms", "ms", median(a.plan), len(a.plan))
	m.set("engine.execute_self_ms", "ms", median(a.execSelf), len(a.execSelf))
	m.set("engine.join_ms", "ms", median(a.join), len(a.join))
	m.set("engine.merge_ms", "ms", median(a.merge), len(a.merge))
	m.set("engine.rows_examined_per_row_returned", "ratio", median(a.examined), len(a.examined))
	m.set("storage.scan_ms", "ms", median(a.scan), len(a.scan))
	m.set("storage.snapshot_pin_ms", "ms", median(a.pin), len(a.pin))
	m.set("storage.partitions_pruned_ratio", "ratio", median(a.pruned), len(a.pruned))
	m.set("cluster.gather_self_ms", "ms", median(a.gatherSelf), len(a.gatherSelf))
	m.set("cluster.worker_leg_max_ms", "ms", median(a.legMax), len(a.legMax))
	m.set("cluster.legs_per_query", "count", median(a.legs), len(a.legs))
	m.set("cluster.rows_shipped_per_query", "count", median(a.shipped), len(a.shipped))
	m.set("obs.unattributed_share", "ratio", median(a.unattributed), len(a.unattributed))
}
