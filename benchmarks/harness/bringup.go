package harness

import (
	"fmt"
	"os"
	"strings"

	"aiql/internal/types"
)

// Flag sets of the durable incarnations that do not serve the window.
var (
	// holdCompaction keeps the whole load in the WAL.
	holdCompaction = []string{"-wal-sync", "interval", "-compact-interval", "1h", "-compact-threshold", "1099511627776"}
	// foldNow compacts as soon as the daemon is up, producing one segment.
	foldNow = []string{"-wal-sync", "interval", "-compact-interval", "50ms"}
)

// bringUp performs one full daemon set-up for the workload's topology:
// spawn, bulk load over /ingest, and — durable topologies — compaction to
// segments and the crash → /readyz cycles. It leaves r.front serving.
func (r *run) bringUp() error {
	r.loaded = 0
	switch r.def.Topology {
	case "memory":
		return r.bringUpMemory()
	case "durable":
		return r.bringUpDurable()
	case "cluster":
		return r.bringUpCluster()
	default:
		return fmt.Errorf("workload %s: unknown topology %q", r.def.Name, r.def.Topology)
	}
}

// tearDown discards the current bring-up so set-up can be timed again.
func (r *run) tearDown() {
	r.env.killAll()
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) // the next bring-up creates its own; close removes the work dir regardless
	}
	r.front, r.workers, r.dataDir = nil, nil, ""
}

// loadParts is how many equal parts a bulk load's rate is measured over:
// ingest_events_per_s is the median part, which a short stall elsewhere on
// the machine does not move.
const loadParts = 5

// load bulk-loads events (closed loop, one connection) through d. When
// measured, it records the acknowledged events per second of each part.
func (r *run) load(d *daemon, entities []types.Entity, events []types.Event, measured bool) error {
	c := dial(d.url)
	defer c.close()
	bs := batches(entities, events, r.def.LoadBatchEvents)
	per := (len(bs) + loadParts - 1) / loadParts
	for i := 0; i < len(bs); i += per {
		part := bs[i:min(i+per, len(bs))]
		t0, n := now(), 0
		for k := range part {
			if err := c.ingest(&part[k]); err != nil {
				return r.env.fail(d, err)
			}
			n += part[k].events
		}
		r.loaded += n
		if measured {
			r.loadEPS = append(r.loadEPS, float64(n)/now().Sub(t0).Seconds())
		}
	}
	return nil
}

// crashCycles SIGKILLs and restarts d n times, recording kill → /readyz.
func (r *run) crashCycles(d *daemon, n int, args ...string) error {
	for i := 0; i < n; i++ {
		took, err := d.restart(args...)
		if err != nil {
			return err
		}
		r.readyMs = append(r.readyMs, ms(took))
	}
	return nil
}

func (r *run) bringUpMemory() error {
	t0 := now()
	d, err := r.env.spawn("aiqld", r.def.Flags...)
	if err != nil {
		return err
	}
	r.front = d
	if _, err := d.waitReady(t0); err != nil {
		return err
	}
	return r.load(d, r.ds.All.Entities, r.ds.All.Events, true)
}

// bringUpDurable loads the cold days with compaction held off, restarts
// with compaction on until the WAL is folded into one v3 segment, then
// restarts on the serving flags. hunt_tiered then loads its hot days;
// every crash cycle after that replays the same WAL tail and maps the same
// segment, so ready_s measures a fixed recovery.
func (r *run) bringUpDurable() error {
	r.bringUps++
	r.dataDir = r.env.dataDir(fmt.Sprintf("store%d", r.bringUps))
	dir := []string{"-data-dir", r.dataDir}
	with := func(flags []string) []string { return append(append([]string(nil), dir...), flags...) }
	serving := with(r.def.Flags)
	if st := r.def.Stream; st != nil {
		serving = append(serving, "-compact-interval", st.CompactInterval, "-wal-flush", fmt.Sprintf("%dms", st.WalFlushMs))
	}

	t0 := now()
	d, err := r.env.spawn("aiqld", with(holdCompaction)...)
	if err != nil {
		return err
	}
	r.front = d
	if _, err := d.waitReady(t0); err != nil {
		return err
	}
	days := r.def.Scale.Days
	cold := days
	if r.def.ColdDays > 0 {
		cold = r.def.ColdDays
	}
	coldEvents := r.ds.days(0, cold)
	if err := r.load(d, r.ds.All.Entities, coldEvents, true); err != nil {
		return err
	}

	if _, err := d.restart(with(foldNow)...); err != nil {
		return err
	}
	err = d.waitMetric("the WAL to fold into a v3 segment", func(p prom) bool {
		return p["aiql_wal_records_count"] == 0 && p["aiql_segments_v3_count"] >= 1 &&
			int(p["aiql_segment_events_count"]) == len(coldEvents)
	})
	if err != nil {
		return err
	}
	if _, err := d.restart(serving...); err != nil {
		return err
	}
	if cold < days {
		// The hot tier: loaded after the fold and never compacted. An
		// acknowledged batch is already written to the WAL file, so every
		// crash cycle below replays all of it.
		if err := r.load(d, nil, r.ds.days(cold, days), false); err != nil {
			return err
		}
	}
	return r.crashCycles(d, r.def.ReadyCycles, serving...)
}

func (r *run) bringUpCluster() error {
	cl := r.def.Cluster
	t0 := now()
	urls := make([]string, cl.Workers)
	for i := range urls {
		w, err := r.env.spawn(fmt.Sprintf("worker%d", i), "-role", "worker", "-shard", fmt.Sprint(i))
		if err != nil {
			return err
		}
		r.workers = append(r.workers, w)
		urls[i] = w.url
	}
	c, err := r.env.spawn("coordinator", append([]string{
		"-role", "coordinator", "-workers", strings.Join(urls, ","),
		"-replicas", fmt.Sprint(cl.Replicas), "-placement", cl.Placement,
	}, r.def.Flags...)...)
	if err != nil {
		return err
	}
	r.front = c
	for _, d := range append([]*daemon{c}, r.workers...) {
		if _, err := d.waitReady(t0); err != nil {
			return err
		}
	}
	return r.load(c, r.ds.All.Entities, r.ds.All.Events, true)
}
