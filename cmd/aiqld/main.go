// Command aiqld is the resident AIQL query service: it loads (or generates)
// a dataset once, then serves concurrent investigations over HTTP/JSON with
// compiled-plan and result caching.
//
// Single node (default role):
//
//	aiqld -data trace.jsonl              # serve a generated trace on :7381
//	aiqld -generate -addr :8080          # generate the scenario in-process
//
//	curl -s localhost:7381/healthz
//	curl -s localhost:7381/metrics               # every counter, Prometheus text
//	curl -s localhost:7381/stats | jq .          # the same registry as flat JSON
//	curl -s localhost:7381/query -d '
//	    agentid = 1
//	    proc p read file f["%id_rsa"] as evt
//	    return p, f'
//	curl -s localhost:7381/query -H 'Content-Type: application/json' \
//	    -d '{"query": "proc p read file f return distinct p"}'
//	aiqlgen -hosts 2 -days 1 -o more.jsonl &&
//	    curl -s -X POST localhost:7381/ingest --data-binary @more.jsonl
//
// Continuous queries (docs/STREAMING.md): standing AIQL rules are matched
// against events as they are ingested, with live NDJSON/SSE delivery:
//
//	curl -s localhost:7381/rules -d '{"query": "proc p read file f[\"%id_rsa\"] return p, f", "backfill": true}'
//	curl -Ns localhost:7381/subscribe/r1          # NDJSON stream
//	curl -Ns -H 'Accept: text/event-stream' localhost:7381/subscribe/r1
//	curl -s -X DELETE localhost:7381/rules/r1
//
// Durable deployment (docs/STORAGE.md): -data-dir makes the store
// disk-backed — ingests append to a write-ahead log, a compactor folds the
// log into immutable segment files, and a restart (even kill -9) recovers
// every acknowledged batch before serving:
//
//	aiqld -data-dir /var/lib/aiqld -generate     # first boot seeds the dir
//	kill -9 $(pidof aiqld)
//	aiqld -data-dir /var/lib/aiqld               # recovers, serves same data
//
// Distributed deployment (docs/CLUSTER.md): worker shards are ordinary
// store-backed aiqld processes; a coordinator fans queries out to them.
//
//	aiqld -role worker -shard 0 -addr :7391    # one empty worker shard...
//	aiqld -role worker -shard 1 -addr :7392    # ...per data node
//	aiqld -role coordinator -addr :7381 \
//	    -workers http://localhost:7391,http://localhost:7392 -generate
//
// A coordinator given -data or -generate scatters that dataset across the
// workers at startup (events placed by (agent, day), entities broadcast);
// otherwise POST /ingest on the coordinator scatters batches the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/obs"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/trace"
	"aiql/internal/types"
)

func main() {
	var (
		addr          = flag.String("addr", ":7381", "listen address")
		role          = flag.String("role", "single", "process role: single, worker, or coordinator")
		workers       = flag.String("workers", "", "comma-separated worker base URLs in shard order (coordinator role)")
		replicas      = flag.Int("replicas", 1, "copies per home shard (coordinator role): 1 = no replication, 2 = dual-write each shard to its primary and the next worker in ring order, with scan failover")
		catchupFrom   = flag.String("catchup-from", "", "peer worker base URL to pull missed replicated batches from at startup (worker role with -data-dir); see docs/CLUSTER.md")
		catchupShards = flag.String("catchup-shards", "", "comma-separated shard indexes to catch up from -catchup-from (default: all shards the peer holds)")
		placement     = flag.String("placement", "semantics-aware", "event placement across workers: semantics-aware ((agent, day) home shards + worker pruning) or arrival-order (round-robin, no pruning)")
		shard         = flag.Int("shard", -1, "this worker's shard index, reported in its /scan replies (worker role)")
		data          = flag.String("data", "", "JSON-lines trace to load (from aiqlgen)")
		generate      = flag.Bool("generate", false, "generate the evaluation scenario in-process instead of loading a file")
		hosts         = flag.Int("hosts", 15, "hosts for -generate")
		days          = flag.Int("days", 4, "days for -generate")
		events        = flag.Int("events", 20000, "background events per host per day for -generate")
		seed          = flag.Int64("seed", 1, "seed for -generate")
		planCache     = flag.Int("plan-cache", 0, "compiled-plan cache capacity (0 = default 256, negative = off)")
		resCache      = flag.Int("result-cache", 0, "result cache capacity (0 = default 128, negative = off)")
		dataDir       = flag.String("data-dir", "", "directory for the durable store (WAL + segments); empty = memory only, data is lost on restart (single and worker roles)")
		walSync       = flag.String("wal-sync", "interval", "WAL durability: batch (fsync every ingest) or interval (group commit every -wal-flush)")
		walFlush      = flag.Duration("wal-flush", 100*time.Millisecond, "group-commit fsync cadence for -wal-sync interval")
		compactIv     = flag.Duration("compact-interval", 30*time.Second, "background WAL-to-segment compaction cadence (-data-dir only)")
		compactTh     = flag.Int64("compact-threshold", 16<<20, "compact as soon as the WAL exceeds this many bytes (-data-dir only)")
		maxRules      = flag.Int("max-rules", 64, "maximum registered continuous-query rules (POST /rules)")
		streamBuf     = flag.Int("stream-buffer", 256, "per-rule emission ring (>= 1): the replay a late or resuming subscriber catches up from, and the lag bound; a subscriber is disconnected once this many emissions, counted from its unread position, are newer than it")
		pprofAddr     = flag.String("pprof", "", "listen address for net/http/pprof profiling endpoints (e.g. localhost:6060); empty = disabled. Kept off the query listener so profiling is never exposed with the service port")
		logFormat     = flag.String("log-format", "", "structured request logging to stderr: text or json; empty = request logging off. Every line carries the request's trace ID")
		slowLogSize   = flag.Int("slow-log", 0, "slow-query log capacity served at GET /debug/slow (0 = default 32, negative = off)")
	)
	flag.Parse()
	if *streamBuf < 1 {
		fatalf("-stream-buffer must be at least 1, got %d", *streamBuf)
	}

	if *pprofAddr != "" {
		ln, err := startPprof(*pprofAddr)
		if err != nil {
			fatalf("pprof listener: %v", err)
		}
		fmt.Fprintf(os.Stderr, "aiqld: pprof listening on %s (/debug/pprof/)\n", ln)
	}

	genCfg := gen.Config{Hosts: *hosts, Days: *days, BackgroundPerHostDay: *events, Seed: *seed}
	srvOpts := server.Options{
		PlanCacheSize: *planCache, ResultCacheSize: *resCache,
		MaxRules: *maxRules, StreamBuffer: *streamBuf,
		SlowLogSize: *slowLogSize,
	}
	if *logFormat != "" {
		format, err := obs.ParseLogFormat(*logFormat)
		if err != nil {
			fatalf("-log-format: %v", err)
		}
		srvOpts.Logger = obs.NewLogger(os.Stderr, format)
	}

	// The listener opens before recovery and catch-up, behind a boot gate:
	// orchestrators see /healthz 200 (alive) and /readyz 503 with the boot
	// stage while the store is being rebuilt, and no query can observe the
	// half-recovered state. The real handler swaps in once boot completes.
	gate := server.NewGate("starting")
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "aiqld (%s) listening on %s (POST /query, POST /ingest, GET /metrics, GET /stats = /metrics as JSON, GET /readyz)\n", *role, ln.Addr())

	var srv *server.Server
	var durable *storage.Persistent
	switch *role {
	case "single", "worker":
		if *dataDir != "" {
			gate.SetStage("wal-recovery")
			var err error
			srv, durable, err = openDurable(*dataDir, durableConfig{
				sync: *walSync, flush: *walFlush, compactIv: *compactIv, compactTh: *compactTh,
				data: *data, generate: *generate, gen: genCfg,
			}, srvOpts)
			if err != nil {
				fatalf("%v", err)
			}
		} else {
			gate.SetStage("load-dataset")
			ds, err := loadDataset(*data, *generate, genCfg, *role == "worker")
			if err != nil {
				fatalf("%v", err)
			}
			st := storage.New(storage.Options{})
			if ds != nil {
				start := time.Now()
				st.Ingest(ds)
				stats := ds.Stats()
				fmt.Fprintf(os.Stderr, "loaded %d events / %d entities across %d agents in %.1fs (%d partitions)\n",
					stats.Events, stats.Entities, stats.Agents, time.Since(start).Seconds(), st.PartitionCount())
			} else {
				fmt.Fprintln(os.Stderr, "starting with an empty store (awaiting coordinator ingest)")
			}
			srv = server.New(st, engine.New(st, engine.Options{}), srvOpts)
		}
		if *role == "worker" && *shard >= 0 {
			srv.SetShard(*shard)
		}
		if *catchupFrom != "" {
			// Pull replicated batches this store missed while it was down,
			// before the gate opens the query routes — queries never see the
			// half-caught-up state, and /readyz names the stage meanwhile.
			if durable == nil {
				fatalf("-catchup-from requires -data-dir (the WAL is the replication log)")
			}
			gate.SetStage("catch-up")
			shards, err := splitShards(*catchupShards)
			if err != nil {
				fatalf("-catchup-shards: %v", err)
			}
			cr, err := server.CatchUp(context.Background(), durable, *catchupFrom, shards)
			if err != nil {
				fatalf("catch-up from %s: %v", *catchupFrom, err)
			}
			fmt.Fprintf(os.Stderr, "caught up from %s: %d batches applied, %d already present\n",
				*catchupFrom, cr.Applied, cr.Duplicates)
		}
	case "coordinator":
		urls, err := splitWorkers(*workers)
		if err != nil {
			fatalf("-workers: %v", err)
		}
		if len(urls) == 0 {
			fatalf("-role coordinator requires -workers url1,url2,...")
		}
		var place mpp.Placement
		switch *placement {
		case "semantics-aware":
			place = mpp.SemanticsAware
		case "arrival-order":
			place = mpp.ArrivalOrder
		default:
			fatalf("unknown -placement %q (want semantics-aware or arrival-order)", *placement)
		}
		coord, err := cluster.New(urls, cluster.Options{Placement: place, Replicas: *replicas})
		if err != nil {
			fatalf("%v", err)
		}
		ds, err := loadDataset(*data, *generate, genCfg, true)
		if err != nil {
			fatalf("%v", err)
		}
		if ds != nil {
			gate.SetStage("scatter-ingest")
			stats := ds.Stats()
			fmt.Fprintf(os.Stderr, "scattering %d events / %d entities across %d workers...\n",
				stats.Events, stats.Entities, len(urls))
			if err := coord.Ingest(context.Background(), ds); err != nil {
				fatalf("scatter ingest: %v", err)
			}
		}
		srv = server.NewCoordinator(coord, engine.New(coord, engine.Options{}), srvOpts)
		fmt.Fprintf(os.Stderr, "coordinating %d workers (%s placement, %d replica(s) per shard)\n", len(urls), coord.Placement(), coord.Replicas())
	default:
		fatalf("unknown -role %q (want single, worker, or coordinator)", *role)
	}

	gate.Ready(srv.Handler())
	fmt.Fprintf(os.Stderr, "aiqld (%s) ready\n", *role)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// closeDurable is the shutdown path every exit must take when the store
	// is disk-backed: it flushes the group-commit WAL buffer (Close syncs
	// the active file) and releases the directory lock, and announces
	// success so operators — and the regression test — can assert the final
	// sync actually ran rather than trusting the happy path.
	closeDurable := func() {
		if durable == nil {
			return
		}
		if err := durable.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "aiqld: closing durable store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "aiqld: durable store closed (wal synced)")
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			closeDurable()
			fatalf("%v", err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "aiqld: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}
	closeDurable()
}

// durableConfig bundles the -data-dir companion flags.
type durableConfig struct {
	sync      string
	flush     time.Duration
	compactIv time.Duration
	compactTh int64
	data      string
	generate  bool
	gen       gen.Config
}

// openDurable opens (or creates) the disk-backed store, completes
// recovery before the server exists, and seeds an empty store from
// -data/-generate. A non-empty recovered store ignores the seeding flags —
// restarting with the same command line must not double-ingest.
func openDurable(dir string, cfg durableConfig, srvOpts server.Options) (*server.Server, *storage.Persistent, error) {
	popts := storage.PersistOptions{
		FlushInterval:         cfg.flush,
		CompactInterval:       cfg.compactIv,
		CompactThresholdBytes: cfg.compactTh,
	}
	switch cfg.sync {
	case "batch":
		popts.SyncEveryBatch = true
	case "interval":
	default:
		return nil, nil, fmt.Errorf("unknown -wal-sync %q (want batch or interval)", cfg.sync)
	}
	start := time.Now()
	p, err := storage.OpenPersistent(dir, popts)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.NewPersistent(p, engine.New(p.Store, engine.Options{}), srvOpts)
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	if p.EventCount() > 0 {
		ds := p.DurabilityStats()
		fmt.Fprintf(os.Stderr, "recovered %d events / %d partitions from %s in %.1fs (%d segments, %d WAL records replayed)\n",
			p.EventCount(), p.PartitionCount(), dir, time.Since(start).Seconds(), ds.Segments, ds.Replayed)
		if cfg.data != "" || cfg.generate {
			fmt.Fprintln(os.Stderr, "ignoring -data/-generate: the durable store already holds data")
		}
		return srv, p, nil
	}
	// Empty store: seed it durably if a dataset was given. A durable
	// server may also start empty and be fed over /ingest, so the dataset
	// is optional for every role.
	ds, err := loadDataset(cfg.data, cfg.generate, cfg.gen, true)
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	if ds == nil {
		fmt.Fprintf(os.Stderr, "starting with an empty durable store in %s\n", dir)
		return srv, p, nil
	}
	if err := p.Ingest(ds); err != nil {
		p.Close()
		return nil, nil, err
	}
	stats := ds.Stats()
	fmt.Fprintf(os.Stderr, "loaded %d events / %d entities across %d agents into %s in %.1fs (%d partitions)\n",
		stats.Events, stats.Entities, stats.Agents, dir, time.Since(start).Seconds(), p.PartitionCount())
	return srv, p, nil
}

// startPprof serves the net/http/pprof endpoints on their own listener.
// The handlers are registered on a private mux — not http.DefaultServeMux —
// so importing pprof cannot leak profiling routes onto the query listener,
// and the query handler never gains debug endpoints by accident. Returns
// the bound address (useful when addr asked for port 0).
func startPprof(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "aiqld: pprof server: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aiqld: "+format+"\n", args...)
	os.Exit(1)
}

// splitWorkers parses the -workers list. The position of each URL is its
// shard assignment, so the list is validated strictly: an empty entry (a
// typo'd trailing or doubled comma) would silently renumber every shard
// after it, and a duplicate URL would assign two shards to one process —
// both corrupt placement rather than fail a request, so both are errors.
func splitWorkers(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	seen := make(map[string]int, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty worker URL at position %d (stray comma?) — shard order is positional, so empties are rejected rather than skipped", i)
		}
		normalized := strings.TrimRight(part, "/")
		if j, dup := seen[normalized]; dup {
			return nil, fmt.Errorf("duplicate worker URL %q at positions %d and %d — each shard needs its own worker", part, j, i)
		}
		seen[normalized] = i
		out = append(out, part)
	}
	return out, nil
}

// splitShards parses a comma-separated shard index list (empty = nil).
func splitShards(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad shard index %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// loadDataset resolves the -data/-generate flags. Roles that can be fed
// later over the network (worker shards awaiting a coordinator scatter, a
// coordinator awaiting /ingest) may start without a dataset; single-node
// servers must be given one.
func loadDataset(path string, generate bool, cfg gen.Config, optional bool) (*types.Dataset, error) {
	switch {
	case generate:
		fmt.Fprintf(os.Stderr, "generating scenario: %d hosts x %d days x %d events/host/day...\n",
			cfg.Hosts, cfg.Days, cfg.BackgroundPerHostDay)
		return gen.Scenario(cfg), nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case optional:
		return nil, nil
	default:
		return nil, fmt.Errorf("provide -data <trace.jsonl> or -generate")
	}
}
