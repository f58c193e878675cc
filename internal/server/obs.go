// Server-side observability plane: the trace middleware that gives every
// request an ID, the metrics registry exporting the subsystems' counters (as
// Prometheus text at /metrics and as JSON at /stats), and the /debug
// inspection endpoints.
package server

import (
	"bytes"
	"net/http"
	"strconv"

	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/stream"
)

// withObs wraps the route mux in the trace middleware. Each request's trace
// ID is accepted from the X-Aiql-Trace header when well-formed (so a
// coordinator's ID follows the query onto its workers, and a client-chosen
// ID follows an investigation across processes) or minted fresh; it is
// echoed on the response header and carried in the request context for
// every layer below. The middleware also feeds the per-route request
// counter and, when a logger is configured, writes one access-log line per
// request.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get(obs.TraceIDHeader))
		w.Header().Set(obs.TraceIDHeader, tr.ID())
		ctx := obs.WithTrace(r.Context(), tr)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := obs.Now()
		next.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		s.httpReqs.With(route, strconv.Itoa(sw.status())).Inc()
		if s.logger != nil {
			s.logger.Log(ctx, "http",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status(),
				"dur_ms", float64(obs.Since(start).Microseconds())/1000)
		}
	})
}

// statusWriter captures the response status for the request counter and the
// access log. It forwards Flush so the streaming handlers (/scan, NDJSON
// query replies, /subscribe) keep flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// httpTraceError is the server's one error writer: every error body carries
// the request's trace ID, so a 502 from a mid-query worker failure (or any
// other error) names the trace whose spans and logs (coordinator- and
// worker-side) explain it.
func (s *Server) httpTraceError(w http.ResponseWriter, r *http.Request, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := obs.TraceID(r.Context()); id != "" {
		body["trace_id"] = id
	}
	writeJSON(w, status, body)
}

// handleReadyz reports readiness. A fully constructed server is always
// ready; the unready window (WAL recovery, segment install, catch-up
// replay) is served by the Gate that fronts the listener until the real
// handler is swapped in.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleDebugSlow serves the slow-query log: the N slowest queries seen,
// slowest first, each with its span tree.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(entries),
		"slowest": entries,
	})
}

// handleDebugQueries serves the in-flight registry: queries currently
// executing, with trace ID, elapsed time, rows streamed so far, and the
// spans recorded so far (a coordinator query shows its worker legs while
// they are still streaming).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	queries := s.inflight.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(queries),
		"queries": queries,
	})
}

// handleStats serves the metrics registry as one flat JSON object: each key
// is a sample's exposition key (name plus sorted labels, as obs.Sample.Key
// renders it), each value the sample's number. It is the registry's own text
// rendering parsed back, so /stats and /metrics cannot disagree.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var text bytes.Buffer
	_, _ = s.metrics.WriteTo(&text)
	exp, err := obs.ParseExposition(&text)
	if err != nil {
		s.httpTraceError(w, r, http.StatusInternalServerError, err)
		return
	}
	out := make(map[string]float64, len(exp.Samples))
	for _, sm := range exp.Samples {
		out[sm.Key()] = sm.Value
	}
	writeJSON(w, http.StatusOK, out)
}

// buildMetrics constructs the registry: the one definition of what the
// server exports, over the stats the subsystems maintain (every *Func series
// reads the live counter at scrape time), plus the request-latency
// histograms the server owns. Called once from Handler, after construction
// settled the server's mode, so the registry only carries families that can
// ever be non-zero here.
func (s *Server) buildMetrics() {
	reg := obs.NewRegistry()
	s.metrics = reg
	s.queryDur = reg.Histogram("aiql_query_duration_seconds", "End-to-end /query latency.")
	s.ingestDur = reg.Histogram("aiql_ingest_duration_seconds", "End-to-end /ingest latency.")
	s.httpReqs = reg.CounterVec("aiql_http_requests_total", "HTTP requests served, by route pattern and status code.", "route", "code")

	reg.CounterFunc("aiql_queries_total", "Queries accepted by /query.", func() float64 { return float64(s.queries.Load()) })
	reg.CounterFunc("aiql_ingest_batches_total", "Batches accepted by /ingest.", func() float64 { return float64(s.ingests.Load()) })
	reg.GaugeFunc("aiql_uptime_seconds", "Seconds since the server started.", func() float64 { return obs.Since(s.started).Seconds() })
	reg.GaugeFunc("aiql_inflight_queries_count", "Queries currently executing.", func() float64 { return float64(s.inflight.Len()) })
	reg.GaugeFunc("aiql_slow_log_entries_count", "Entries held in the slow-query log.", func() float64 { return float64(s.slow.Len()) })
	reg.GaugeFunc("aiql_subscribers_count", "Live /subscribe connections.", func() float64 { return float64(s.subscribers.Load()) })

	s.cacheMetrics(reg, "plan", s.plans.Stats)
	s.cacheMetrics(reg, "result", s.results.Stats)

	if s.store != nil {
		s.storeMetrics(reg)
	}
	if s.durable != nil {
		s.durabilityMetrics(reg)
	}
	if s.coord != nil {
		s.clusterMetrics(reg)
	}
	s.streamMetrics(reg)
}

// cacheMetrics exports one cache's counters. Hits/misses/evictions are
// cumulative (counters); size and the derived hit ratio are instantaneous.
func (s *Server) cacheMetrics(reg *obs.Registry, name string, stats func() CacheStats) {
	p := "aiql_" + name + "_cache_"
	reg.CounterFunc(p+"hits_total", "Cache hits.", func() float64 { return float64(stats().Hits) })
	reg.CounterFunc(p+"misses_total", "Cache misses.", func() float64 { return float64(stats().Misses) })
	reg.CounterFunc(p+"evictions_total", "Cache evictions.", func() float64 { return float64(stats().Evictions) })
	reg.GaugeFunc(p+"size_count", "Entries currently cached.", func() float64 { return float64(stats().Size) })
	reg.GaugeFunc(p+"hit_ratio", "Hits over lookups since start (0 when no lookups).", func() float64 {
		st := stats()
		if st.Hits+st.Misses == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	})
}

// storeMetrics exports the local store's state and its block-level scan
// counters, one aiql_scan_<name>_total family per storage.ScanCounters
// entry.
func (s *Server) storeMetrics(reg *obs.Registry) {
	reg.GaugeFunc("aiql_store_events_count", "Events held by the store.", func() float64 { return float64(s.store.EventCount()) })
	reg.GaugeFunc("aiql_store_partitions_count", "Live (agent, day) partitions.", func() float64 { return float64(s.store.PartitionCount()) })
	reg.GaugeFunc("aiql_store_generation_count", "Store generation (bumped per ingest batch).", func() float64 { return float64(s.store.Generation()) })
	reg.GaugeFunc("aiql_live_snapshots_count", "Snapshots currently pinned.", func() float64 { return float64(s.store.LiveSnapshots()) })
	reg.GaugeFunc("aiql_live_cursors_count", "Scan cursors currently open.", func() float64 { return float64(s.store.LiveCursors()) })
	reg.CounterFunc("aiql_scans_served_total", "Worker /scan requests served.", func() float64 { return float64(s.scans.Load()) })

	for i, c := range storage.ScanCounters {
		reg.CounterFunc("aiql_scan_"+c.Name+"_total", c.Help, func() float64 { return float64(s.store.ScanStats()[i]) })
	}

	rs := s.store.ReplStats
	reg.CounterFunc("aiql_repl_applied_total", "Replication-tagged batches applied.", func() float64 { return float64(rs().Applied) })
	reg.CounterFunc("aiql_repl_duplicates_total", "Replication-tagged batches skipped as duplicates.", func() float64 { return float64(rs().Duplicates) })
	reg.GaugeVecFunc("aiql_repl_watermark_count", "Contiguous applied-sequence watermark per (epoch, shard); a replica behind its peer shows a lower watermark until catch-up closes the gap.", []string{"epoch", "shard"}, func(emit func([]string, float64)) {
		for _, sh := range rs().Shards {
			emit([]string{sh.Epoch, strconv.Itoa(sh.Shard)}, float64(sh.Watermark))
		}
	})
}

// durabilityMetrics exports the WAL and segment counters, including the
// fsync and compaction timings the durable layer accumulates.
func (s *Server) durabilityMetrics(reg *obs.Registry) {
	ds := s.durable.DurabilityStats
	reg.GaugeFunc("aiql_wal_records_count", "WAL records not yet folded into segments.", func() float64 { return float64(ds().WALRecords) })
	reg.GaugeFunc("aiql_wal_depth_bytes", "Bytes of WAL not yet folded into segments.", func() float64 { return float64(ds().WALBytes) })
	reg.GaugeFunc("aiql_wal_last_seq_count", "Highest WAL sequence written.", func() float64 { return float64(ds().LastSeq) })
	reg.GaugeFunc("aiql_wal_covered_seq_count", "Highest WAL sequence covered by segments.", func() float64 { return float64(ds().CoveredSeq) })
	reg.GaugeFunc("aiql_wal_replayed_count", "WAL records replayed by the last open.", func() float64 { return float64(ds().Replayed) })
	reg.CounterFunc("aiql_wal_fsyncs_total", "WAL fsync calls.", func() float64 { return float64(ds().WALFsyncs) })
	reg.CounterFunc("aiql_wal_fsync_seconds_total", "Cumulative seconds spent in WAL fsync.", func() float64 { return float64(ds().WALFsyncNanos) / 1e9 })
	reg.GaugeFunc("aiql_segments_count", "Immutable segment files.", func() float64 { return float64(ds().Segments) })
	reg.GaugeFunc("aiql_segments_v3_count", "Segments with compressed blocks and attribute zone maps (v3).", func() float64 { return float64(ds().Segments) })
	reg.GaugeFunc("aiql_segment_events_count", "Events held in sealed segments.", func() float64 { return float64(ds().SegmentEvents) })
	reg.CounterFunc("aiql_compactions_total", "WAL-to-segment compactions.", func() float64 { return float64(ds().Compactions) })
	reg.CounterFunc("aiql_compaction_seconds_total", "Cumulative seconds spent compacting.", func() float64 { return float64(ds().CompactionNanos) / 1e9 })
}

// clusterMetrics exports the coordinator's scatter/gather counters.
func (s *Server) clusterMetrics(reg *obs.Registry) {
	cs := s.coord.Stats
	reg.GaugeFunc("aiql_cluster_workers_count", "Workers in the cluster.", func() float64 { return float64(cs().Workers) })
	reg.GaugeFunc("aiql_cluster_replicas_count", "Replication factor.", func() float64 { return float64(cs().Replicas) })
	reg.CounterFunc("aiql_cluster_scans_total", "Data queries scattered to workers.", func() float64 { return float64(cs().Scans) })
	reg.CounterFunc("aiql_cluster_worker_requests_total", "Per-worker scan requests issued.", func() float64 { return float64(cs().WorkerRequests) })
	reg.CounterFunc("aiql_cluster_workers_pruned_total", "Workers eliminated before fan-out by placement pruning.", func() float64 { return float64(cs().WorkersPruned) })
	reg.CounterFunc("aiql_cluster_worker_failures_total", "Worker legs that failed.", func() float64 { return float64(cs().WorkerFailures) })
	reg.CounterFunc("aiql_cluster_ingest_batches_total", "Ingest batches scattered.", func() float64 { return float64(cs().IngestBatches) })
	reg.CounterFunc("aiql_cluster_failovers_total", "Shard scans served by a replica after the primary failed.", func() float64 { return float64(cs().Failovers) })
	reg.CounterFunc("aiql_cluster_degraded_ingests_total", "Shard batches that landed on only one of their two copies.", func() float64 { return float64(cs().DegradedIngests) })
	reg.CounterFunc("aiql_cluster_ingest_retries_total", "Re-posted ingest requests.", func() float64 { return float64(cs().IngestRetries) })
}

// streamMetrics exports the continuous-query counters — the local matcher's
// on a store-backed server, the merge layer's on a coordinator.
func (s *Server) streamMetrics(reg *obs.Registry) {
	stats := func() stream.Stats {
		if s.coord != nil {
			return s.coord.StreamingStats()
		}
		return s.matcher.Stats()
	}
	reg.GaugeFunc("aiql_stream_rules_count", "Registered standing rules.", func() float64 { return float64(stats().Rules) })
	reg.CounterFunc("aiql_stream_emitted_total", "Rule matches emitted to subscribers.", func() float64 { return float64(stats().Emitted) })
	reg.CounterFunc("aiql_stream_dropped_slow_consumers_total", "Subscribers disconnected for falling a full buffer behind.", func() float64 { return float64(stats().DroppedSlowConsumers) })
	reg.GaugeFunc("aiql_stream_state_buffered_count", "Partial-join state currently buffered.", func() float64 { return float64(stats().StateBuffered) })
	reg.CounterFunc("aiql_stream_state_evicted_total", "Partial-join state entries evicted.", func() float64 { return float64(stats().StateEvicted) })
	reg.CounterFunc("aiql_stream_join_overflows_total", "Join-state overflows.", func() float64 { return float64(stats().JoinOverflows) })
	reg.CounterFunc("aiql_stream_backfills_total", "Rule registrations backfilled from existing data.", func() float64 { return float64(stats().Backfills) })
}
