// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Sec. 6): it assembles the engine
// configurations under comparison, times the query corpus against each, and
// prints rows in the shape of the paper's tables and figures.
//
// Engine configurations (see DESIGN.md for the emulation rationale):
//
//   - AIQL: partitioned/indexed store, relationship-based scheduling,
//     and partition-parallel scans — the full system.
//   - PostgreSQL (end-to-end): same data without spatial/temporal
//     partition pruning, single-threaded scans, and the semantics-agnostic
//     one-big-join execution with per-row predicate evaluation.
//   - Neo4j: adjacency-list graph store (entities as nodes, events as
//     relationships) with traversal-based pattern matching and
//     nested-loop-only joins.
//   - PostgreSQL scheduling (Fig. 6): AIQL's optimized storage, big-join
//     scheduling — isolates scheduling from storage as the paper does.
//   - AIQL FF (Fig. 6): fetch-and-filter scheduling.
//   - Greenplum (Fig. 7): MPP cluster with arrival-order placement and
//     big-join scheduling vs AIQL scheduling on semantics-aware placement.
package bench

import (
	"context"
	"fmt"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/graphstore"
	"aiql/internal/mpp"
	"aiql/internal/queries"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// Timeout is the per-query wall-clock budget; baseline configurations that
// exceed it are reported as the paper reports its baselines' one-hour
// timeouts. (The engine's pair budget usually trips first.)
const Timeout = 120 * time.Second

// System names used across reports.
const (
	SysAIQL      = "AIQL"
	SysPostgres  = "PostgreSQL"
	SysNeo4j     = "Neo4j"
	SysAIQLFF    = "AIQL FF"
	SysGreenplum = "Greenplum"
	SysCluster   = "AIQL cluster"
)

// Runner is one named engine configuration under test.
type Runner struct {
	Name   string
	Engine *engine.Engine
}

// Timing is one (query, system) measurement.
type Timing struct {
	QueryID  string
	Group    string
	Patterns int
	System   string
	Elapsed  time.Duration
	Rows     int
	TimedOut bool
	Err      error
}

// Run times one query against one runner, mapping budget exhaustion to a
// timeout record. Fast queries are measured as the best of two runs after
// the first run has warmed allocator and caches; slow queries are measured
// once (re-running a near-timeout baseline doubles nothing but wall-clock).
func Run(r Runner, q queries.Query) Timing {
	t := runOnce(r, q)
	if t.TimedOut || t.Elapsed > 2*time.Second {
		return t
	}
	if t2 := runOnce(r, q); t2.Elapsed < t.Elapsed {
		t2.Rows = t.Rows
		return t2
	}
	return t
}

func runOnce(r Runner, q queries.Query) Timing {
	t := Timing{QueryID: q.ID, Group: q.Group, Patterns: q.Patterns, System: r.Name}
	// The timeout is enforced for real now that the engine is cancelable:
	// a baseline that blows the budget stops scanning mid-cursor instead of
	// running to completion after the measurement window closed.
	//aiql:ignore ctxflow -- the harness owns the measurement deadline; there is no caller context to inherit
	ctx, cancel := context.WithTimeout(context.Background(), Timeout)
	defer cancel()
	//aiql:ignore wallclock -- wall-clock latency is the measurement itself
	start := time.Now()
	res, err := r.Engine.QueryContext(ctx, q.Src)
	t.Elapsed = time.Since(start)
	if err != nil {
		t.Err = err
		t.TimedOut = true // budget or deadline exhaustion stands in for >1h
		return t
	}
	t.Rows = len(res.Rows)
	if t.Elapsed > Timeout {
		t.TimedOut = true
	}
	return t
}

// EndToEnd builds the Table 3 / Fig. 5 comparison systems over one dataset.
func EndToEnd(ds *types.Dataset) []Runner {
	// AIQL: everything on.
	aiqlStore := storage.New(storage.Options{})
	aiqlStore.Ingest(ds)
	aiql := engine.New(aiqlStore, engine.Options{Strategy: engine.StrategyRelationship})

	// PostgreSQL: same schema and indexes, but no spatial/temporal
	// partition pruning, sequential scans, one-big-join scheduling with
	// per-row predicate evaluation (events joined against entity tables).
	pgStore := storage.New(storage.Options{DisablePruning: true, Workers: 1})
	pgStore.Ingest(ds)
	pg := engine.New(pgStore, engine.Options{Strategy: engine.StrategyBigJoin})

	// Neo4j: graph traversal store, declaration-order assembly, no hash
	// joins. Cross-pattern equality lives in WHERE clauses of the Cypher
	// translation, which the 2018-era planner executed as cartesian
	// products plus filters — the nested-loop configuration here.
	g := graphstore.New()
	g.Ingest(ds)
	neo := engine.New(g, engine.Options{
		Strategy:   engine.StrategyBigJoin,
		NoHashJoin: true,
	})

	return []Runner{
		{Name: SysAIQL, Engine: aiql},
		{Name: SysPostgres, Engine: pg},
		{Name: SysNeo4j, Engine: neo},
	}
}

// SingleNode builds the Fig. 6 comparison: three schedulers over the SAME
// optimized storage ("here we want to rule out the speedup offered by the
// data storage component" — paper Sec. 6.3.2).
func SingleNode(ds *types.Dataset) []Runner {
	st := storage.New(storage.Options{})
	st.Ingest(ds)
	pgSched := engine.New(st, engine.Options{Strategy: engine.StrategyBigJoin})
	ff := engine.New(st, engine.Options{Strategy: engine.StrategyFetchFilter})
	aiql := engine.New(st, engine.Options{Strategy: engine.StrategyRelationship})
	return []Runner{
		{Name: SysPostgres, Engine: pgSched},
		{Name: SysAIQLFF, Engine: ff},
		{Name: SysAIQL, Engine: aiql},
	}
}

// Parallel builds the Fig. 7 comparison on MPP storage: Greenplum
// scheduling (arrival-order placement, big-join SQL) vs AIQL scheduling
// (semantics-aware placement, Algorithm 1). 5 segments, as deployed in the
// paper.
func Parallel(ds *types.Dataset, segments int) []Runner {
	gpCluster := mpp.New(segments, mpp.ArrivalOrder, storage.Options{})
	gpCluster.Ingest(ds)
	gp := engine.New(gpCluster, engine.Options{Strategy: engine.StrategyBigJoin})

	aiqlCluster := mpp.New(segments, mpp.SemanticsAware, storage.Options{})
	aiqlCluster.Ingest(ds)
	aiql := engine.New(aiqlCluster, engine.Options{Strategy: engine.StrategyRelationship})

	return []Runner{
		{Name: SysGreenplum, Engine: gp},
		{Name: SysAIQL, Engine: aiql},
	}
}

// Distributed builds the networked counterpart of Parallel: AIQL
// scheduling over a cluster.Coordinator that scatters every data query to
// already-running worker aiqld processes (workerURLs in shard order) and
// gathers their NDJSON streams. Callers own the workers' lifecycles; the
// returned runner only issues HTTP against them. Comparing it with the
// SingleNode AIQL runner over the same dataset isolates the wire cost of
// the real multi-process topology from the engine and storage work.
func Distributed(workerURLs []string) (Runner, error) {
	coord, err := cluster.New(workerURLs, cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		return Runner{}, err
	}
	return Runner{Name: SysCluster, Engine: engine.New(coord, engine.Options{})}, nil
}

// DistributedIngest scatters the dataset across the workers of a
// Distributed runner's coordinator by (agent, day) placement.
func DistributedIngest(ctx context.Context, r Runner, ds *types.Dataset) error {
	coord, ok := r.Engine.Backend().(*cluster.Coordinator)
	if !ok {
		return fmt.Errorf("bench: runner %q is not a distributed runner", r.Name)
	}
	return coord.Ingest(ctx, ds)
}

// Dataset builds (and caches per config) the full evaluation scenario.
func Dataset(cfg gen.Config) *types.Dataset {
	return gen.Scenario(cfg)
}
