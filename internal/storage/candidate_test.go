package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// tableScanCandidates is candidate resolution as the typed-table loop does
// it: the predicate evaluated on every entity of the type. It is the oracle
// the index paths (exact probe, value dictionary) are held to.
func tableScanCandidates(sn *Snapshot, t types.EntityType, p pred.Pred) map[types.EntityID]struct{} {
	if p == nil || p.ConstraintCount() == 0 {
		return nil
	}
	out := make(map[types.EntityID]struct{})
	for _, id := range sn.byType[t] {
		if p.Eval(sn.entities[id]) {
			out[id] = struct{}{}
		}
	}
	return out
}

// chooser is the source of every random choice the generators below make:
// math/rand in the seeded test, the fuzzer's bytes in FuzzCandidateSet.
type chooser interface{ intn(n int) int }

type randChooser struct{ *rand.Rand }

func (r randChooser) intn(n int) int { return r.Intn(n) }

// byteChooser reads choices from a byte string, then 0s once it runs out.
type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// The attribute value pools: few distinct values per attribute, as in
// monitoring data, with numeric and non-numeric strings mixed where ordered
// comparisons apply.
var (
	candExeNames = []string{`C:\Windows\System32\cmd.exe`, `C:\Tools\osql.exe`, "/usr/bin/sbblv.exe", "x.exe", "tax.exe", "java", ""}
	candPIDs     = []string{"4", "42", "4242", "100", "7", "abc"}
	candFiles    = []string{`C:\Users\a\backup1.dmp`, "/etc/passwd", "/var/log/auth.log", "/tmp/x.exe", "backup1.dmp"}
	candIPs      = []string{"203.0.113.129", "10.0.0.1", "10.0.0.12", "192.168.1.5"}
	candPorts    = []string{"22", "80", "443", "8080", "1000", "x"}
	candCmds     = []string{"cmd /c whoami", "osql -E", "java -jar a.jar"}
)

var candTypes = []types.EntityType{types.EntityProcess, types.EntityFile, types.EntityNetwork}

// candAttrs is every attribute the predicate generator draws on, per
// entity type: the indexed ones, an unindexed one, and the pseudo-attributes
// id, agentid and type.
var candAttrs = map[types.EntityType][]string{
	types.EntityProcess: {types.AttrExeName, types.AttrPID, types.AttrCmd, types.AttrID, types.AttrAgentID, "type"},
	types.EntityFile:    {types.AttrName, types.AttrID, types.AttrAgentID, "type"},
	types.EntityNetwork: {types.AttrDstIP, types.AttrSrcIP, types.AttrDstPort, types.AttrID, types.AttrAgentID, "type"},
}

func candPool(attr string) []string {
	switch attr {
	case types.AttrExeName:
		return candExeNames
	case types.AttrPID:
		return candPIDs
	case types.AttrCmd:
		return candCmds
	case types.AttrName:
		return candFiles
	case types.AttrDstIP, types.AttrSrcIP:
		return candIPs
	case types.AttrDstPort:
		return candPorts
	case types.AttrID:
		return []string{"1", "2", "17", "40", "1000"}
	case types.AttrAgentID:
		return []string{"1", "2", "3", "4"}
	default: // type
		return []string{"proc", "file", "ip"}
	}
}

// candEntities generates n entities with ids from first on, each attribute
// drawn from its pool or, one time in five, left out.
func candEntities(c chooser, first types.EntityID, n int) []types.Entity {
	out := make([]types.Entity, n)
	for i := range out {
		t := candTypes[c.intn(len(candTypes))]
		attrs := map[string]string{}
		for _, a := range candAttrs[t] {
			if a == types.AttrID || a == types.AttrAgentID || a == "type" || c.intn(5) == 0 {
				continue
			}
			pool := candPool(a)
			attrs[a] = pool[c.intn(len(pool))]
		}
		out[i] = types.Entity{ID: first + types.EntityID(i), Type: t, AgentID: 1 + c.intn(4), Attrs: attrs}
	}
	return out
}

// candLike turns a pool value into a LIKE pattern with a leading, trailing
// or inner %, or both ends, or a bare %.
func candLike(c chooser, v string) string {
	i := 0
	if len(v) > 0 {
		i = c.intn(len(v) + 1)
	}
	j := i
	if i < len(v) {
		j = i + c.intn(len(v)-i+1)
	}
	switch c.intn(5) {
	case 0:
		return "%" + v[i:]
	case 1:
		return v[:i] + "%"
	case 2:
		return v[:i] + "%" + v[j:]
	case 3:
		return "%" + v[i:j] + "%"
	default:
		return "%"
	}
}

// candPred generates a random entity predicate over t's attributes: every
// comparison operator, LIKE patterns, in lists holding patterns, and nested
// &&, || and !.
func candPred(c chooser, t types.EntityType, depth int) pred.Pred {
	if depth > 0 {
		switch c.intn(6) {
		case 0, 1:
			xs := make([]pred.Pred, 2+c.intn(2))
			for i := range xs {
				xs[i] = candPred(c, t, depth-1)
			}
			if c.intn(2) == 0 {
				return &pred.And{Xs: xs}
			}
			return &pred.Or{Xs: xs}
		case 2:
			return &pred.Not{X: candPred(c, t, depth-1)}
		}
	}
	attrs := candAttrs[t]
	attr := attrs[c.intn(len(attrs))]
	pool := candPool(attr)
	val := func() string {
		v := pool[c.intn(len(pool))]
		if c.intn(3) == 0 {
			return candLike(c, v)
		}
		return v
	}
	switch op := pred.CmpOp(c.intn(8)); op {
	case pred.CmpIn, pred.CmpNotIn:
		vals := make([]string, 1+c.intn(3))
		for i := range vals {
			vals[i] = val()
		}
		return pred.NewCond(attr, op, "", vals...)
	case pred.CmpLt, pred.CmpLe, pred.CmpGt, pred.CmpGe:
		return pred.NewCond(attr, op, pool[c.intn(len(pool))])
	default:
		return pred.NewCond(attr, op, val())
	}
}

// checkCandidates compares candidate resolution with the table-scan oracle
// for one predicate over every entity type, and reports whether the value
// dictionary could serve any of them.
func checkCandidates(t *testing.T, sn *Snapshot, p pred.Pred) (dictUsed bool) {
	t.Helper()
	for _, typ := range candTypes {
		want := tableScanCandidates(sn, typ, p)
		got := sn.candidateSet(typ, p, nil)
		if !sameIDSet(got, want) {
			t.Fatalf("%s %s: candidateSet = %v, table scan = %v", typ, p, sortedIDs(got), sortedIDs(want))
		}
		if _, _, ok := sn.probeValues(typ, p); ok {
			dictUsed = true
		}
	}
	return dictUsed
}

func sameIDSet(a, b map[types.EntityID]struct{}) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}

func sortedIDs(s map[types.EntityID]struct{}) []int {
	var out []int
	for id := range s {
		out = append(out, int(id))
	}
	slices.Sort(out)
	return out
}

// TestCandidateSetMatchesTableScan holds candidate resolution — exact probe,
// value dictionary, typed table — to the typed-table loop on random entity
// predicates, including over a snapshot taken before more entities (some
// with new values, some with known ones) arrived: the old snapshot must
// neither see their ids nor resolve through their values. Every fourth
// seed runs with DisableIndexes, where resolution takes the typed table.
func TestCandidateSetMatchesTableScan(t *testing.T) {
	dictUsed := 0
	for seed := int64(1); seed <= 8; seed++ {
		c := randChooser{rand.New(rand.NewSource(seed))}
		st := New(Options{DisableIndexes: seed%4 == 0})
		st.Ingest(&types.Dataset{Entities: candEntities(c, 1, 300)})
		before := st.Snapshot()
		late := candEntities(c, 1000, 100)
		for i := range late {
			if i%2 == 0 && late[i].Type == types.EntityProcess {
				late[i].Attrs[types.AttrExeName] = "late" + strconv.Itoa(i) + ".exe"
			}
		}
		st.Ingest(&types.Dataset{Entities: late})
		after := st.Snapshot()
		for i := 0; i < 300; i++ {
			p := candPred(c, candTypes[i%3], 3)
			if checkCandidates(t, before, p) {
				dictUsed++
			}
			checkCandidates(t, after, p)
			for _, typ := range candTypes {
				for id := range before.candidateSet(typ, p, nil) {
					if id >= 1000 {
						t.Fatalf("%s: snapshot taken before entity %d arrived resolved it", p, id)
					}
				}
			}
		}
		late0 := pred.NewCond(types.AttrExeName, pred.CmpEq, "late%")
		if got := before.candidateSet(types.EntityProcess, late0, nil); len(got) != 0 {
			t.Fatalf("old snapshot resolved values ingested after it: %v", sortedIDs(got))
		}
		if got := after.candidateSet(types.EntityProcess, late0, nil); len(got) == 0 {
			t.Fatal("new snapshot missed the late values")
		}
		before.Close()
		after.Close()
	}
	if dictUsed < 100 {
		t.Fatalf("only %d predicates went through the value dictionary; the generator no longer exercises it", dictUsed)
	}
}

// TestValueDictionaryFallsBack pins what the value dictionary must refuse:
// a predicate any missing-attribute entity satisfies (!=, not in, !), an Or
// with an unprojectable disjunct, and predicates on unindexed or pseudo
// attributes only — all go to the typed table.
func TestValueDictionaryFallsBack(t *testing.T) {
	st := New(Options{})
	st.Ingest(&types.Dataset{Entities: candEntities(randChooser{rand.New(rand.NewSource(3))}, 1, 200)})
	sn := st.Snapshot()
	defer sn.Close()
	exe := types.AttrExeName
	for _, p := range []pred.Pred{
		pred.NewCond(exe, pred.CmpNe, "%cmd.exe"),
		pred.NewCond(exe, pred.CmpNotIn, "", "x.exe", "%osql%"),
		&pred.Not{X: pred.NewCond(exe, pred.CmpEq, "%cmd.exe")},
		&pred.Or{Xs: []pred.Pred{pred.NewCond(exe, pred.CmpEq, "%cmd.exe"), pred.NewCond(types.AttrCmd, pred.CmpEq, "%whoami")}},
		&pred.Or{Xs: []pred.Pred{pred.NewCond(exe, pred.CmpEq, "%cmd.exe"), pred.NewCond(types.AttrPID, pred.CmpGt, "40")}},
		pred.NewCond(types.AttrAgentID, pred.CmpEq, "4"),
		pred.NewCond(types.AttrID, pred.CmpLt, "50"),
		pred.NewCond("type", pred.CmpEq, "proc"),
	} {
		if _, _, ok := sn.probeValues(types.EntityProcess, p); ok {
			t.Errorf("%s resolved through the value dictionary", p)
		}
		checkCandidates(t, sn, p)
	}
	for _, p := range []pred.Pred{
		pred.NewCond(exe, pred.CmpEq, "%cmd.exe"),
		pred.NewCond(types.AttrPID, pred.CmpGe, "42"),
		pred.NewCond(exe, pred.CmpIn, "", "%osql%", "java"),
		pred.AndOf(pred.NewCond(exe, pred.CmpEq, "%.exe"), &pred.Not{X: pred.NewCond(types.AttrCmd, pred.CmpEq, "%whoami")}),
	} {
		if _, _, ok := sn.probeValues(types.EntityProcess, p); !ok {
			t.Errorf("%s did not resolve through the value dictionary", p)
		}
		checkCandidates(t, sn, p)
	}
}

// FuzzCandidateSet is TestCandidateSetMatchesTableScan's comparison with the
// entities, the late arrivals and the predicate all drawn from fuzz bytes.
func FuzzCandidateSet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b, b)
	}
	f.Fuzz(func(t *testing.T, data, predBytes []byte) {
		c := &byteChooser{b: data}
		st := New(Options{})
		st.Ingest(&types.Dataset{Entities: candEntities(c, 1, 1+c.intn(60))})
		before := st.Snapshot()
		defer before.Close()
		st.Ingest(&types.Dataset{Entities: candEntities(c, 1000, c.intn(20))})
		after := st.Snapshot()
		defer after.Close()
		pc := &byteChooser{b: predBytes}
		for i := 0; i < 3; i++ {
			p := candPred(pc, candTypes[i], 3)
			checkCandidates(t, before, p)
			checkCandidates(t, after, p)
		}
	})
}

// TestProbeIndexPicksMostSelectiveKey: of two indexed equalities the probe
// takes the key with the shorter id lists — pid, held by one process, not
// exe_name, held by fifty.
func TestProbeIndexPicksMostSelectiveKey(t *testing.T) {
	var ents []types.Entity
	for i := 0; i < 50; i++ {
		ents = append(ents, types.Entity{ID: types.EntityID(1 + i), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: "cmd.exe", types.AttrPID: strconv.Itoa(4200 + i)}})
	}
	st := New(Options{})
	st.Ingest(&types.Dataset{Entities: ents})
	sn := st.Snapshot()
	defer sn.Close()
	p := pred.AndOf(pred.NewCond(types.AttrExeName, pred.CmpEq, "cmd.exe"), pred.NewCond(types.AttrPID, pred.CmpEq, "4242"))
	set, verdicts := sn.resolveCandidates(types.EntityProcess, p, nil)
	if len(set) != 1 {
		t.Fatalf("candidates = %v, want the one process with pid 4242", sortedIDs(set))
	}
	if _, ok := set[43]; !ok {
		t.Fatalf("candidates = %v, want [43]", sortedIDs(set))
	}
	if verdicts != 1 {
		t.Fatalf("probe spent %d verdicts, want 1: it probed exe_name (50 ids) instead of pid (1 id)", verdicts)
	}
}

// TestValueDictionaryCostIndependentOfEntities guards the value dictionary's
// cost without a timer: resolving a wildcard over 1 000 or 20 000 processes
// that share the same 20 names costs the same verdicts and, within a small
// constant, the same allocations. The typed-table loop spends one verdict
// per process.
func TestValueDictionaryCostIndependentOfEntities(t *testing.T) {
	p := pred.NewCond(types.AttrExeName, pred.CmpEq, "%x.exe")
	cost := func(n int) (allocs float64, verdicts int64) {
		ents := make([]types.Entity, n)
		for i := range ents {
			name := fmt.Sprintf("name%02d.bin", i%19)
			if i < 3 {
				name = "tax.exe" // the same three matches in both stores
			}
			ents[i] = types.Entity{ID: types.EntityID(1 + i), Type: types.EntityProcess, AgentID: 1,
				Attrs: map[string]string{types.AttrExeName: name}}
		}
		st := New(Options{})
		st.Ingest(&types.Dataset{Entities: ents})
		sn := st.Snapshot()
		defer sn.Close()
		start := st.ScanStats()[EntityVerdicts]
		if got := sn.candidateSet(types.EntityProcess, p, nil); len(got) != 3 {
			t.Fatalf("%d processes: %d candidates, want 3", n, len(got))
		}
		verdicts = st.ScanStats()[EntityVerdicts] - start
		allocs = testing.AllocsPerRun(50, func() { sn.candidateSet(types.EntityProcess, p, nil) })
		return allocs, verdicts
	}
	smallA, smallV := cost(1_000)
	bigA, bigV := cost(20_000)
	if smallV != 20 || bigV != 20 {
		t.Errorf("verdicts = %d over 1 000 and %d over 20 000 processes, want 20 (one per name) for both", smallV, bigV)
	}
	if bigA-smallA > 2 || smallA-bigA > 2 {
		t.Errorf("allocations = %.0f over 1 000 and %.0f over 20 000 processes, want equal within 2", smallA, bigA)
	}
}
