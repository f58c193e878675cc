// Package backendtest holds a query backend to the reference evaluator
// (internal/refeval): every backend, scheduler strategy and ablation flag
// must return the rows the language defines, not merely the rows another
// backend returns.
package backendtest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/refeval"
	"aiql/internal/types"
)

// Open builds the backend under test over ds and returns an engine
// answering queries from it.
type Open func(t testing.TB, ds *types.Dataset) *engine.Engine

// Case is one query asked of a suite's dataset.
type Case struct {
	ID  string
	Src string
}

// Suite is a dataset and the cases asked of it.
type Suite struct {
	Name  string
	Data  *types.Dataset
	Cases []Case

	once    sync.Once
	answers []reference
}

type reference struct {
	ans *refeval.Answer
	err error
}

// reference answers every case, once per suite.
func (s *Suite) reference() []reference {
	s.once.Do(func() {
		ev := refeval.New(s.Data)
		for _, c := range s.Cases {
			ans, err := ev.Query(c.Src)
			s.answers = append(s.answers, reference{ans, err})
		}
	})
	return s.answers
}

// The random suites: one per seed, each asking randomQueries draws of
// queries.Random.
var (
	randomSeeds   = []int64{1, 2, 3}
	randomQueries = 24
)

var (
	suitesOnce sync.Once
	allSuites  []*Suite
)

// suites are the corpus over the generated scenario it was written for,
// then the random suites, built once per test binary.
func suites() []*Suite {
	suitesOnce.Do(func() {
		corpus := &Suite{Name: "corpus", Data: gen.Scenario(gen.SmallConfig())}
		for _, q := range append(queries.CaseStudy(), queries.Behaviors()...) {
			corpus.Cases = append(corpus.Cases, Case{ID: q.ID, Src: q.Src})
		}
		allSuites = []*Suite{corpus}
		for _, seed := range randomSeeds {
			allSuites = append(allSuites, random(seed, randomQueries))
		}
	})
	return allSuites
}

// random is a small random dataset with queries.Random draws and sliding
// window queries over it, all derived from seed.
func random(seed int64, n int) *Suite {
	rng := rand.New(rand.NewSource(seed))
	s := &Suite{Name: fmt.Sprintf("random-%d", seed), Data: Dataset(rng)}
	for i := 0; i < n; i++ {
		s.Cases = append(s.Cases, Case{ID: fmt.Sprintf("r%d", i), Src: queries.Random(rng)})
	}
	for i, src := range anomalyQueries(rng) {
		s.Cases = append(s.Cases, Case{ID: fmt.Sprintf("w%d", i), Src: src})
	}
	return s
}

// Conformance runs every suite against the backend open builds, failing
// on each answer that differs from the reference. Every backend answers
// all three query classes, so nothing is skipped.
func Conformance(t *testing.T, open Open) {
	t.Helper()
	for _, s := range suites() {
		Run(t, s, open(t, s.Data))
	}
}

// Run asks eng every case of s and compares each answer with the
// reference: the same columns and rows, sorted rows in sort order, and
// anomaly rows in window order. An error must meet an error.
func Run(t testing.TB, s *Suite, eng *engine.Engine) {
	t.Helper()
	refs := s.reference()
	for i, c := range s.Cases {
		want := refs[i]
		got, err := eng.Query(c.Src)
		if (want.err == nil) != (err == nil) {
			t.Errorf("%s/%s: error %v, reference error %v\n%s", s.Name, c.ID, err, want.err, c.Src)
			continue
		}
		if err != nil {
			continue
		}
		if err := want.ans.Check(got.Columns, got.Rows); err != nil {
			t.Errorf("%s/%s: %v\n%s", s.Name, c.ID, err, c.Src)
			continue
		}
		if err := want.ans.CheckOrder(got.Rows); err != nil {
			t.Errorf("%s/%s: %v\n%s", s.Name, c.ID, err, c.Src)
		}
	}
}

// Dataset generates five hosts' activity over the three days queries.Random
// asks about, named so that its predicates match. Times sit on a
// ten-minute grid, so events share timestamps, fall exactly on day
// boundaries and lie exactly a bounded relationship's range apart. Some
// names hold a LIKE pattern's anchored chunk away from its anchor
// (`C:\Temp\cmd.exe.bak` for "%cmd.exe", `/srv/var/log/app.log` for
// "/var/log%"), and some repeat it before the anchor
// (`C:\cmd.exe.d\cmd.exe`).
func Dataset(rng *rand.Rand) *types.Dataset {
	procs := []string{
		`C:\Windows\System32\cmd.exe`, `C:\cmd.exe.d\cmd.exe`, `C:\Temp\cmd.exe.bak`, `C:\Users\Public\sbblv.exe`,
		`/usr/sbin/apache2`, `C:\Program Files\Google\chrome.exe`, `C:\Windows\svchost.exe`, `/usr/bin/sshd`,
	}
	files := []string{
		`/data/backup1.dmp`, `/data/backup1.dmp.d/backup1.dmp`, `/data/backup1.dmp.gz`, `/var/log/syslog`,
		`/srv/var/log/app.log`, `C:\Windows\x.dll`, `C:\lib\a.dll.d\b.dll`, `C:\lib\x.dll.mui`,
		`C:\Users\alice\Documents\plan.doc`,
	}
	type endpoint struct{ ip, port string }
	ips := []endpoint{{"203.0.113.129", "443"}, {"203.0.113.129", "8080"}, {"10.0.0.5", "443"}, {"10.0.0.7", "80"}}
	users := []string{"root", "alice"}

	var ents []types.Entity
	var events []types.Event
	id := types.EntityID(0)
	add := func(t types.EntityType, agent int, attrs map[string]string) types.EntityID {
		id++
		ents = append(ents, types.Entity{ID: id, Type: t, AgentID: agent, Attrs: attrs})
		return id
	}
	for agent := 1; agent <= 5; agent++ {
		var ps, fs, ns []types.EntityID
		for i, exe := range procs {
			ps = append(ps, add(types.EntityProcess, agent, map[string]string{
				types.AttrExeName: exe, types.AttrPID: fmt.Sprint(100 + i), types.AttrUser: users[rng.Intn(len(users))],
			}))
		}
		for _, name := range files {
			fs = append(fs, add(types.EntityFile, agent, map[string]string{types.AttrName: name}))
		}
		for _, e := range ips {
			ns = append(ns, add(types.EntityNetwork, agent, map[string]string{types.AttrDstIP: e.ip, types.AttrDstPort: e.port}))
		}
		seq := uint64(0)
		for day := 0; day < 3; day++ {
			for k := 0; k < 400; k++ {
				seq++
				start := gen.DayStart(day) + int64(rng.Intn(145))*10*60_000
				ev := types.Event{
					ID: types.EventID(len(events) + 1), AgentID: agent, Subject: ps[rng.Intn(len(ps))],
					Start: start, End: start + int64(rng.Intn(1000)), Seq: seq, Amount: int64(rng.Intn(8192)),
				}
				switch rng.Intn(3) {
				case 0:
					ev.Object = fs[rng.Intn(len(fs))]
					ev.Op = []types.Op{types.OpRead, types.OpWrite, types.OpExecute, types.OpDelete, types.OpRename}[rng.Intn(5)]
				case 1:
					ev.Object = ps[rng.Intn(len(ps))]
					ev.Op = []types.Op{types.OpStart, types.OpEnd}[rng.Intn(2)]
				default:
					ev.Object = ns[rng.Intn(len(ns))]
					ev.Op = []types.Op{types.OpConnect, types.OpRead, types.OpWrite, types.OpSend}[rng.Intn(4)]
				}
				events = append(events, ev)
			}
		}
	}
	return types.NewDataset(ents, events)
}

// anomalyQueries draws sliding-window queries whose windows and steps are
// multiples of the dataset's ten-minute grid, so events fall exactly on
// window edges.
func anomalyQueries(rng *rand.Rand) []string {
	returns := []string{
		`return p, count(f) as n group by p having n > n[1]`,
		`return p, sum(evt.amount) as amt group by p having amt > 2 * (amt + amt[1] + amt[2]) / 3`,
		`return p, count(distinct f) as n group by p having n >= EWMA(n, 0.5)`,
		`return p, f, count(f) as n group by p having n > CMA(n)`,
	}
	var out []string
	for _, ret := range returns {
		out = append(out, fmt.Sprintf("agentid = %d\n(at %q)\nwindow = %d min, step = %d min\nproc p read || write file f as evt\n%s",
			1+rng.Intn(5), gen.DateStr(rng.Intn(3)), 10*(1+rng.Intn(6)), 10*(1+rng.Intn(3)), ret))
	}
	return out
}
