package storage

import (
	"sort"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// DecodeCold fully decodes every cold run the store holds — decodeAll, the
// block decoder with every column requested, which is also what a thaw
// runs — and returns the events in scan order. The external property test
// holds scanCold to a row-by-row filter over this.
func (s *Store) DecodeCold() ([]types.Event, error) {
	sn := s.Snapshot()
	defer sn.Close()
	var out []types.Event
	for _, p := range sn.parts {
		for _, run := range p.cold {
			events, _, _, err := run.decodeAll()
			if err != nil {
				return nil, err
			}
			out = append(out, events...)
		}
	}
	return out, nil
}

// ScanOrder returns events in the order a scan emits them: partitions by
// (day, agent), and within one by start time and sequence number.
func ScanOrder(events []types.Event) []types.Event {
	out := append([]types.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if da, db := timeutil.DayIndex(a.Start), timeutil.DayIndex(b.Start); da != db {
			return da < db
		}
		if a.AgentID != b.AgentID {
			return a.AgentID < b.AgentID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Seq < b.Seq
	})
	return out
}

// refEntityOK is the reference's entity test, written from DataQuery's field
// documentation rather than shared with the store.
func refEntityOK(e *types.Entity, t types.EntityType, p pred.Pred, allowed map[types.EntityID]struct{}) bool {
	if e == nil {
		return false
	}
	if t != types.EntityInvalid && e.Type != t {
		return false
	}
	if allowed != nil {
		if _, ok := allowed[e.ID]; !ok {
			return false
		}
	}
	return p == nil || p.Eval(e)
}

// RefScan is the row-by-row reference for every scan path: it filters
// events, in the order given, by each field of q in turn.
func RefScan(st *Store, q *DataQuery, events []types.Event) []types.Event {
	var out []types.Event
	for i := range events {
		ev := &events[i]
		if len(q.Agents) > 0 {
			in := false
			for _, a := range q.Agents {
				in = in || a == ev.AgentID
			}
			if !in {
				continue
			}
		}
		if !q.Window.Contains(ev.Start) || !q.Ops.Contains(ev.Op) {
			continue
		}
		if !refEntityOK(st.Entity(ev.Subject), q.SubjType, q.SubjPred, q.SubjAllowed) ||
			!refEntityOK(st.Entity(ev.Object), q.ObjType, q.ObjPred, q.ObjAllowed) {
			continue
		}
		if q.EvtPred != nil && !q.EvtPred.Eval(ev) {
			continue
		}
		out = append(out, *ev)
		if q.Limit > 0 && len(out) == q.Limit {
			break
		}
	}
	return out
}
