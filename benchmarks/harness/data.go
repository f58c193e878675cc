package harness

import (
	"encoding/json"
	"sort"
	"strconv"

	"aiql/benchmarks/workloads"
	"aiql/internal/gen"
	"aiql/internal/types"
)

// Dataset is one generated scenario with its events grouped by day, the
// unit every workload loads, tiers and streams by.
type Dataset struct {
	All *types.Dataset
	// ByDay[d] holds day d's events in generation order.
	ByDay [][]types.Event
}

func generate(sc workloads.Scale, seed int64) *Dataset {
	all := gen.Scenario(gen.Config{
		Hosts: sc.Hosts, Days: sc.Days, BackgroundPerHostDay: sc.EventsPerHostDay, Seed: seed,
	})
	d := &Dataset{All: all, ByDay: make([][]types.Event, sc.Days)}
	day0 := gen.DayStart(0)
	const dayMillis = 24 * 3600 * 1000
	for _, ev := range all.Events {
		i := int((ev.Start - day0) / dayMillis)
		if i < 0 {
			i = 0
		}
		if i >= sc.Days {
			i = sc.Days - 1
		}
		d.ByDay[i] = append(d.ByDay[i], ev)
	}
	return d
}

// days returns the events of days [from, to), in day order.
func (d *Dataset) days(from, to int) []types.Event {
	var out []types.Event
	for i := from; i < to && i < len(d.ByDay); i++ {
		out = append(out, d.ByDay[i]...)
	}
	return out
}

// byTime returns a copy of events in event-time order, the order a live
// agent feed delivers them in.
func byTime(events []types.Event) []types.Event {
	out := append([]types.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// The /ingest wire format is JSON lines (aiqlgen's format): one record per
// line, tagged with "kind". It is part of the pinned daemon surface, so the
// harness encodes it itself instead of importing the repo's codec.

type entityLine struct {
	Kind    string            `json:"kind"`
	ID      uint64            `json:"id"`
	Type    string            `json:"type"`
	AgentID int               `json:"agentid"`
	Attrs   map[string]string `json:"attrs"`
}

func appendEntities(buf []byte, entities []types.Entity) []byte {
	for i := range entities {
		e := &entities[i]
		line, err := json.Marshal(entityLine{
			Kind: "entity", ID: uint64(e.ID), Type: e.Type.String(), AgentID: e.AgentID, Attrs: e.Attrs,
		})
		if err != nil {
			panic(err) // a map[string]string cannot fail to marshal
		}
		buf = append(append(buf, line...), '\n')
	}
	return buf
}

func appendEvents(buf []byte, events []types.Event) []byte {
	for i := range events {
		ev := &events[i]
		buf = append(buf, `{"kind":"event","id":`...)
		buf = strconv.AppendUint(buf, uint64(ev.ID), 10)
		buf = append(buf, `,"agentid":`...)
		buf = strconv.AppendInt(buf, int64(ev.AgentID), 10)
		buf = append(buf, `,"subject":`...)
		buf = strconv.AppendUint(buf, uint64(ev.Subject), 10)
		buf = append(buf, `,"object":`...)
		buf = strconv.AppendUint(buf, uint64(ev.Object), 10)
		buf = append(buf, `,"op":"`...)
		buf = append(buf, ev.Op.String()...)
		buf = append(buf, `","start":`...)
		buf = strconv.AppendInt(buf, ev.Start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, ev.End, 10)
		buf = append(buf, `,"seq":`...)
		buf = strconv.AppendUint(buf, ev.Seq, 10)
		if ev.Amount != 0 {
			buf = append(buf, `,"amount":`...)
			buf = strconv.AppendInt(buf, ev.Amount, 10)
		}
		if ev.FailCode != 0 {
			buf = append(buf, `,"failcode":`...)
			buf = strconv.AppendInt(buf, int64(ev.FailCode), 10)
		}
		buf = append(buf, "}\n"...)
	}
	return buf
}

// batch is one encoded /ingest body.
type batch struct {
	body   []byte
	events int
	// lastTs is the newest event start in the batch; the streaming workload
	// maps an emission's ts back to the batch that carried it.
	lastTs int64
}

// batches splits events into /ingest bodies of at most size events. The
// entities ride in the first body, so every event's endpoints are
// registered no later than the event itself.
func batches(entities []types.Entity, events []types.Event, size int) []batch {
	var out []batch
	for i := 0; i < len(events); i += size {
		chunk := events[i:min(i+size, len(events))]
		var body []byte
		if i == 0 {
			body = appendEntities(body, entities)
		}
		b := batch{events: len(chunk)}
		for k := range chunk {
			b.lastTs = max(b.lastTs, chunk[k].Start)
		}
		b.body = appendEvents(body, chunk)
		out = append(out, b)
	}
	return out
}
