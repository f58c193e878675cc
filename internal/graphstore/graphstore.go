// Package graphstore emulates the paper's Neo4j baseline: system entities
// stored as property-graph nodes, system events as relationships
// (paper Sec. 6.1, "Neo4j databases are configured by importing system
// entities as nodes and system events as relationships").
//
// The executor reproduces the characteristic cost profile the paper
// observed: exact node-property lookups are served by a schema index, and
// pattern matching expands the adjacency lists of candidate nodes — but
// there is no spatial/temporal partitioning (every expansion filters time
// and agent per edge), no parallel scan, and, at the query layer, Cypher's
// expand-and-filter style provides no efficient hash joins (the engine is
// configured with NoHashJoin when running over this backend).
package graphstore

import (
	"context"
	"sort"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/types"
)

// nodeKey addresses the node property index (exact values only, like a
// Neo4j schema index — LIKE-style patterns cannot use it).
type nodeKey struct {
	typ  types.EntityType
	attr string
	val  string
}

var indexedAttrs = map[types.EntityType][]string{
	types.EntityFile:    {types.AttrName},
	types.EntityProcess: {types.AttrExeName, types.AttrPID},
	types.EntityNetwork: {types.AttrDstIP, types.AttrSrcIP, types.AttrDstPort},
}

// Graph is the adjacency-list property graph.
type Graph struct {
	entities map[types.EntityID]*types.Entity
	byType   map[types.EntityType][]types.EntityID
	nodeIdx  map[nodeKey][]types.EntityID
	out      map[types.EntityID][]int32 // subject -> event positions
	in       map[types.EntityID][]int32 // object -> event positions
	events   []types.Event
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		entities: make(map[types.EntityID]*types.Entity),
		byType:   make(map[types.EntityType][]types.EntityID),
		nodeIdx:  make(map[nodeKey][]types.EntityID),
		out:      make(map[types.EntityID][]int32),
		in:       make(map[types.EntityID][]int32),
	}
}

// Ingest imports a dataset: entities become nodes, events become
// relationships.
func (g *Graph) Ingest(d *types.Dataset) {
	for i := range d.Entities {
		e := &d.Entities[i]
		if _, dup := g.entities[e.ID]; dup {
			continue
		}
		g.entities[e.ID] = e
		g.byType[e.Type] = append(g.byType[e.Type], e.ID)
		for _, attr := range indexedAttrs[e.Type] {
			if v, ok := e.Attrs[attr]; ok {
				k := nodeKey{typ: e.Type, attr: attr, val: v}
				g.nodeIdx[k] = append(g.nodeIdx[k], e.ID)
			}
		}
	}
	for i := range d.Events {
		ev := d.Events[i]
		pos := int32(len(g.events))
		g.events = append(g.events, ev)
		g.out[ev.Subject] = append(g.out[ev.Subject], pos)
		g.in[ev.Object] = append(g.in[ev.Object], pos)
	}
}

// EventCount returns the number of relationships in the graph.
func (g *Graph) EventCount() int { return len(g.events) }

// NodeCount returns the number of nodes in the graph.
func (g *Graph) NodeCount() int { return len(g.entities) }

// Scan implements the engine Backend interface. The Neo4j emulation has no
// partitioned storage to stream from — its traversal materializes, exactly
// the cost profile the paper observed — so Scan runs the traversal and the
// cursor serves its result. The engine drains one cursor at a time, so a
// background goroutine would gain nothing. The traversal polls ctx, so a
// canceled context (the bench harness's timeout, a disconnected client)
// aborts a long expansion mid-scan, and the cursor then reports ctx's
// error rather than a partial result.
func (g *Graph) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	ms := g.run(ctx, q)
	if err := ctx.Err(); err != nil {
		return storage.NewErrCursor(err)
	}
	return storage.NewSliceCursor(ms)
}

// Run executes a data query with graph-traversal semantics: resolve one
// endpoint to candidate nodes (schema index for exact values, label scan
// plus property filter otherwise), then expand and filter their adjacency
// lists edge by edge. The traversal polls ctx and aborts when canceled.
func (g *Graph) Run(ctx context.Context, q *storage.DataQuery) []storage.Match {
	return g.run(ctx, q)
}

func (g *Graph) run(ctx context.Context, q *storage.DataQuery) []storage.Match {
	subjCand := g.candidates(q.SubjType, q.SubjPred, q.SubjAllowed)
	objCand := g.candidates(q.ObjType, q.ObjPred, q.ObjAllowed)
	if (subjCand != nil && len(subjCand) == 0) || (objCand != nil && len(objCand) == 0) {
		return nil
	}

	var agentSet map[int]struct{}
	if len(q.Agents) > 0 {
		agentSet = make(map[int]struct{}, len(q.Agents))
		for _, a := range q.Agents {
			agentSet[a] = struct{}{}
		}
	}

	check := func(pos int32) (storage.Match, bool) {
		ev := &g.events[pos]
		if !q.Ops.Contains(ev.Op) {
			return storage.Match{}, false
		}
		if !q.Window.Unbounded() && !q.Window.Contains(ev.Start) {
			return storage.Match{}, false
		}
		if agentSet != nil {
			if _, ok := agentSet[ev.AgentID]; !ok {
				return storage.Match{}, false
			}
		}
		subj, obj := g.entities[ev.Subject], g.entities[ev.Object]
		if subj == nil || obj == nil {
			return storage.Match{}, false
		}
		if q.SubjType != types.EntityInvalid && subj.Type != q.SubjType {
			return storage.Match{}, false
		}
		if q.ObjType != types.EntityInvalid && obj.Type != q.ObjType {
			return storage.Match{}, false
		}
		if subjCand != nil {
			if _, ok := subjCand[ev.Subject]; !ok {
				return storage.Match{}, false
			}
		} else if q.SubjPred != nil && !q.SubjPred.Eval(subj) {
			return storage.Match{}, false
		}
		if objCand != nil {
			if _, ok := objCand[ev.Object]; !ok {
				return storage.Match{}, false
			}
		} else if q.ObjPred != nil && !q.ObjPred.Eval(obj) {
			return storage.Match{}, false
		}
		if q.EvtPred != nil && !q.EvtPred.Eval(ev) {
			return storage.Match{}, false
		}
		return storage.Match{Event: ev, Subj: subj, Obj: obj}, true
	}

	var out []storage.Match
	scanned := 0
	canceled := func() bool {
		scanned++
		return scanned&4095 == 0 && ctx.Err() != nil
	}
	emitAll := func(positions []int32) bool {
		for _, pos := range positions {
			if canceled() {
				return false
			}
			if m, ok := check(pos); ok {
				out = append(out, m)
				if q.Limit > 0 && len(out) >= q.Limit {
					return false
				}
			}
		}
		return true
	}

	// Expand from the smaller candidate frontier; with no bounded frontier
	// on either side, scan every relationship.
	switch {
	case subjCand != nil && (objCand == nil || len(subjCand) <= len(objCand)):
		for _, id := range sortedIDs(subjCand) {
			if !emitAll(g.out[id]) {
				break
			}
		}
	case objCand != nil:
		for _, id := range sortedIDs(objCand) {
			if !emitAll(g.in[id]) {
				break
			}
		}
	default:
		for pos := range g.events {
			if canceled() {
				break
			}
			if m, ok := check(int32(pos)); ok {
				out = append(out, m)
				if q.Limit > 0 && len(out) >= q.Limit {
					break
				}
			}
		}
	}
	// Traversal order is node-major; restore temporal order for
	// deterministic downstream behaviour.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Event.Start != out[j].Event.Start {
			return out[i].Event.Start < out[j].Event.Start
		}
		return out[i].Event.Seq < out[j].Event.Seq
	})
	return out
}

// candidates resolves an entity predicate to candidate node IDs: an exact
// value probes the schema index, anything else label-scans nodes of the
// type and filters. nil means "unbounded" (no constraint at all).
func (g *Graph) candidates(t types.EntityType, p pred.Pred, allowed map[types.EntityID]struct{}) map[types.EntityID]struct{} {
	if allowed != nil {
		out := make(map[types.EntityID]struct{}, len(allowed))
		for id := range allowed {
			e := g.entities[id]
			if e == nil || (t != types.EntityInvalid && e.Type != t) {
				continue
			}
			if p == nil || p.Eval(e) {
				out[id] = struct{}{}
			}
		}
		return out
	}
	if p == nil || p.ConstraintCount() == 0 {
		return nil
	}
	for _, k := range pred.IndexableKeys(p) {
		if !isIndexed(t, k.Attr) {
			continue
		}
		out := make(map[types.EntityID]struct{})
		for _, val := range k.Vals {
			for _, id := range g.nodeIdx[nodeKey{typ: t, attr: k.Attr, val: val}] {
				if p.Eval(g.entities[id]) {
					out[id] = struct{}{}
				}
			}
		}
		return out
	}
	// Label scan + property filter.
	out := make(map[types.EntityID]struct{})
	for _, id := range g.byType[t] {
		if p.Eval(g.entities[id]) {
			out[id] = struct{}{}
		}
	}
	return out
}

func isIndexed(t types.EntityType, attr string) bool {
	for _, a := range indexedAttrs[t] {
		if a == attr {
			return true
		}
	}
	return false
}

func sortedIDs(set map[types.EntityID]struct{}) []types.EntityID {
	out := make([]types.EntityID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
