package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aiql/benchmarks/workloads"
	"aiql/internal/engine"
	"aiql/internal/lexer"
	"aiql/internal/parser"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/types"
	"aiql/internal/wal"
)

// The probes are the ledger's own spans around direct calls into each
// package's public functions, on the run's seeded inputs: the workload's
// own query texts for the front end and the engine, the workload's own
// dataset for storage, the WAL and the rule matcher. They run after the
// window, with every daemon idle, and only in the traced pass.

const (
	probeTexts  = 2000   // front-end probes visit at most this many texts
	probeBudget = 400    // ms of in-process query execution
	probeEvents = 100000 // events the durable-store and WAL probes write
	probeBatch  = 1000
)

func (r *run) probes() error {
	var texts, wide []string
	for _, req := range r.distinct {
		if len(texts) < probeTexts {
			texts = append(texts, req.text)
		}
		if req.class == "wide" {
			wide = append(wide, req.text)
		}
	}
	r.frontEndProbe(texts)

	st := storage.New(storage.Options{})
	t0 := now()
	st.Ingest(r.ds.All)
	r.m.set("storage.mem_ingest_events_per_s", "1/s", float64(len(r.ds.All.Events))/now().Sub(t0).Seconds(), len(r.ds.All.Events))
	if err := r.engineProbe(st, texts, wide); err != nil {
		return err
	}
	r.snapshotProbe(st)
	if err := r.matchProbe(); err != nil {
		return err
	}
	dir := filepath.Join(r.env.workDir, "probes")
	if err := r.durableProbe(dir); err != nil {
		return fmt.Errorf("durable-store probe: %w", err)
	}
	if err := r.walProbe(dir); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// frontEndProbe times lexing, parsing and compiling each text.
func (r *run) frontEndProbe(texts []string) {
	var lex, parse, compile []float64
	for _, text := range texts {
		t0 := now()
		_, lexErr := lexer.Lex(text)
		t1 := now()
		q, parseErr := parser.Parse(text)
		t2 := now()
		if lexErr != nil || parseErr != nil {
			continue // the daemons answered these texts; a text that does not parse here would have failed there
		}
		if _, err := engine.Compile(q); err != nil {
			continue
		}
		t3 := now()
		lex = append(lex, 1000*ms(t1.Sub(t0)))
		parse = append(parse, 1000*ms(t2.Sub(t1)))
		compile = append(compile, 1000*ms(t3.Sub(t2)))
	}
	r.m.set("lexer.lex_us", "us", median(lex), len(lex))
	r.m.set("parser.parse_us", "us", median(parse), len(parse))
	r.m.set("engine.compile_us", "us", median(compile), len(compile))
}

// engineProbe runs the workload's texts through (*Engine).QueryContext on
// a hot in-process store: the request with the HTTP edge, the caches and
// the tiers taken away. For cluster_r2 it also relates the wide class to
// its in-process cost.
func (r *run) engineProbe(st *storage.Store, texts, wide []string) error {
	eng := engine.New(st, engine.Options{})
	timed := func(texts []string) ([]float64, error) {
		var xs []float64
		deadline := now().Add(probeBudget * time.Millisecond)
		for _, text := range texts {
			if !now().Before(deadline) {
				break
			}
			t0 := now()
			if _, err := eng.QueryContext(r.ctx, text); err != nil {
				return nil, fmt.Errorf("in-process probe: %w", err)
			}
			xs = append(xs, msSince(t0))
		}
		return xs, nil
	}
	xs, err := timed(texts)
	if err != nil {
		return err
	}
	r.m.set("engine.query_inproc_ms", "ms", median(xs), len(xs))
	if r.def.Cluster != nil {
		xs, err := timed(wide)
		if err != nil {
			return err
		}
		r.m.set("cluster.wide_vs_inproc_ratio", "ratio", ratio(r.m["client.wide_p50_ms"].Value, median(xs)), len(xs))
	}
	return nil
}

// snapshotProbe times pinning a snapshot right after a mutation, when the
// copy-on-write flags have to be set again.
func (r *run) snapshotProbe(st *storage.Store) {
	events := r.ds.ByDay[len(r.ds.ByDay)-1]
	var xs []float64
	for i := 0; i+10 <= len(events) && len(xs) < 200; i += 10 {
		// Re-ingesting known events only exercises the apply path; this
		// store is the probe's own.
		st.Ingest(types.NewDataset(nil, events[i:i+10]))
		t0 := now()
		snap := st.Snapshot()
		xs = append(xs, 1000*msSince(t0))
		snap.Close()
	}
	r.m.set("storage.snapshot_us", "us", median(xs), len(xs))
}

// matchProbe feeds the dataset's last day through a Matcher holding the
// workload's eight rules, batch by batch, as the ingest tap would.
func (r *run) matchProbe() error {
	st := storage.New(storage.Options{})
	st.Ingest(types.NewDataset(r.ds.All.Entities, nil))
	m := stream.NewMatcher(st, stream.Options{})
	// The eight rules ingest_mixed registers, whichever workload runs.
	def, err := workloads.Load("ingest_mixed", false)
	if err != nil {
		return err
	}
	rules, err := standingRules(def.Stream)
	if err != nil {
		return err
	}
	for _, rule := range rules {
		if _, err := m.Register(stream.RuleSpec{Query: rule.Query}); err != nil {
			return fmt.Errorf("stream probe: %w", err)
		}
	}
	events := byTime(r.ds.ByDay[len(r.ds.ByDay)-1])
	events = events[:min(len(events), probeEvents)]
	t0 := now()
	for i := 0; i < len(events); i += probeBatch {
		m.OnIngest(types.NewDataset(nil, events[i:min(i+probeBatch, len(events))]), uint64(i/probeBatch+1))
	}
	r.m.set("stream.match_events_per_s", "1/s", float64(len(events))/now().Sub(t0).Seconds(), len(events))
	return nil
}

// ingestBatches journals events into p in probeBatch batches, the
// entities riding in the first.
func (r *run) ingestBatches(p *storage.Persistent, events []types.Event) error {
	ents := r.ds.All.Entities
	for i := 0; i < len(events); i += probeBatch {
		if err := p.Ingest(types.NewDataset(ents, events[i:min(i+probeBatch, len(events))])); err != nil {
			return err
		}
		ents = nil
	}
	return nil
}

// durableProbe writes probeEvents through a Persistent store, compacts
// them, closes and reopens: ingest-to-WAL, compaction and recovery each
// under the probe's own span.
func (r *run) durableProbe(dir string) error {
	events := r.ds.All.Events[:min(len(r.ds.All.Events), probeEvents)]
	hold := storage.PersistOptions{FlushInterval: -1, CompactInterval: -1, CompactThresholdBytes: 1 << 40}

	// -wal-sync batch: one fsync per batch.
	opts := hold
	opts.SyncEveryBatch = true
	p, err := storage.OpenPersistent(filepath.Join(dir, "batch-sync"), opts)
	if err != nil {
		return err
	}
	t0 := now()
	n := min(len(events), 20*probeBatch)
	if err := r.ingestBatches(p, events[:n]); err != nil {
		p.Close()
		return err
	}
	r.m.set("wal.batch_sync_events_per_s", "1/s", float64(n)/now().Sub(t0).Seconds(), n)
	if err := p.Close(); err != nil {
		return err
	}

	store := filepath.Join(dir, "store")
	p, err = storage.OpenPersistent(store, hold)
	if err != nil {
		return err
	}
	if err := r.ingestBatches(p, events); err != nil {
		p.Close()
		return err
	}
	if err := p.Sync(); err != nil {
		p.Close()
		return err
	}
	walBytes, err := dirBytes(filepath.Join(store, "wal"))
	if err != nil {
		p.Close()
		return err
	}
	r.m.set("wal.bytes_per_event", "B", float64(walBytes)/float64(len(events)), len(events))
	t0 = now()
	if err := p.Compact(); err != nil {
		p.Close()
		return err
	}
	r.m.set("storage.compact_events_per_s", "1/s", float64(len(events))/now().Sub(t0).Seconds(), len(events))
	if err := p.Close(); err != nil {
		return err
	}
	segBytes, err := dirBytes(filepath.Join(store, "seg"))
	if err != nil {
		return err
	}
	r.m.set("storage.segment_bytes_per_event", "B", float64(segBytes)/float64(len(events)), len(events))

	// Recovery, as the daemon does it: reopen and warm up.
	var recover []float64
	for i := 0; i < 5; i++ {
		t0 = now()
		p, err = storage.OpenPersistent(store, hold)
		if err != nil {
			return err
		}
		if err := p.WarmUp(); err != nil {
			p.Close()
			return err
		}
		recover = append(recover, msSince(t0))
		if err := p.Close(); err != nil {
			return err
		}
	}
	r.m.set("storage.recover_ms", "ms", median(recover), len(recover))
	return nil
}

// walProbe appends wire-sized records to a bare log: append bandwidth
// without syncing, then the cost of one sync after one append.
func (r *run) walProbe(dir string) error {
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	// A record the size of one encoded batch: the WAL does not look inside.
	perEvent := max(16, int(r.m["wal.bytes_per_event"].Value))
	record := make([]byte, perEvent*probeBatch)
	for i := range record {
		record[i] = byte(i * 31)
	}
	const appends = 200
	t0 := now()
	for i := 0; i < appends; i++ {
		if _, err := log.Append(record); err != nil {
			return err
		}
	}
	secs := now().Sub(t0).Seconds()
	r.m.set("wal.append_mb_per_s", "MB/s", float64(appends*len(record))/1e6/secs, appends)
	if err := log.Sync(); err != nil {
		return err
	}
	var syncs []float64
	for i := 0; i < 20; i++ {
		if _, err := log.Append(record); err != nil {
			return err
		}
		t0 = now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, msSince(t0))
	}
	r.m.set("wal.sync_ms", "ms", median(syncs), len(syncs))
	return os.RemoveAll(dir)
}
