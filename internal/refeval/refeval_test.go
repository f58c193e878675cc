package refeval

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// TestLikeAgreesWithRegexp checks the LIKE matcher against a regular
// expression built from the same pattern, over short patterns and values
// from a two-letter alphabet, where repeated and overlapping chunks are
// common.
func TestLikeAgreesWithRegexp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(alphabet string, n int) string {
		b := make([]byte, rng.Intn(n+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		pattern, s := word("ab%", 6), word("ab", 7)
		parts := strings.Split(pattern, "%")
		for k := range parts {
			parts[k] = regexp.QuoteMeta(parts[k])
		}
		want := regexp.MustCompile("^(?s:" + strings.Join(parts, ".*") + ")$").MatchString(s)
		if got := like(pattern, s); got != want {
			t.Fatalf("like(%q, %q) = %v, want %v", pattern, s, got, want)
		}
	}
}

// docData is a few events on host 1 on 03/02/2017 for checking the
// semantics docs/QUERY_LANGUAGE.md states, one example each.
func docData() *types.Dataset {
	day, _ := timeutil.AtWindow("03/02/2017")
	t0 := day.From
	ents := []types.Entity{
		{ID: 1, Type: types.EntityProcess, AgentID: 1, Attrs: map[string]string{types.AttrExeName: `C:\a\cmd.exe`}},
		{ID: 2, Type: types.EntityProcess, AgentID: 1, Attrs: map[string]string{types.AttrExeName: "x.exe.exe"}},
		{ID: 10, Type: types.EntityFile, AgentID: 1, Attrs: map[string]string{types.AttrName: "/etc/passwd"}},
		{ID: 11, Type: types.EntityFile, AgentID: 1, Attrs: map[string]string{types.AttrName: "a_a"}},
		{ID: 20, Type: types.EntityNetwork, AgentID: 1, Attrs: map[string]string{types.AttrDstIP: "1.2.3.4"}},
	}
	ev := func(id, subj, obj types.EntityID, op types.Op, ms int64, seq uint64, amount int64) types.Event {
		return types.Event{ID: types.EventID(id), AgentID: 1, Subject: subj, Object: obj, Op: op,
			Start: t0 + ms, End: t0 + ms, Seq: seq, Amount: amount}
	}
	return types.NewDataset(ents, []types.Event{
		ev(1, 1, 10, types.OpRead, 1_000, 1, 10),
		ev(2, 1, 20, types.OpWrite, 61_000, 2, 500),
		ev(3, 2, 11, types.OpRead, 61_000, 3, 20),
		ev(4, 2, 1, types.OpStart, 200_000, 4, 0),
		ev(5, 1, 10, types.OpRead, 200_000, 5, 30),
	})
}

func TestDocumentedSemantics(t *testing.T) {
	ev := New(docData())
	head := "agentid = 1\n(at \"03/02/2017\")\n"
	for _, c := range []struct {
		name, src string
		want      [][]string
	}{
		{"like anchors the tail at the end", `proc p["%.exe"] read file f return distinct p, f`,
			[][]string{{`C:\a\cmd.exe`, "/etc/passwd"}, {"x.exe.exe", "a_a"}}},
		{"like does not overlap its chunks", `proc p read file f["a%a"] return f`, [][]string{{"a_a"}}},
		{"ordered comparison is numeric", `proc p read file f as e[amount > 9] return e.amount`,
			[][]string{{"10"}, {"20"}, {"30"}}},
		{"same millisecond orders by sequence on one host",
			"proc p read file f as e1\nproc q write ip i as e2\nwith e1 before e2\nreturn p, f, q",
			[][]string{{`C:\a\cmd.exe`, "/etc/passwd", `C:\a\cmd.exe`}}},
		{"a range bound is inclusive",
			"proc p read file f as e1\nproc p write ip i as e2\nwith e1 before[0-1 min] e2\nreturn e1.starttime",
			[][]string{{strconv.FormatInt(docData().Events[0].Start, 10)}}},
		{"after swaps the operands",
			"proc p start proc c as e1\nproc c read file f as e2\nwith e2 after e1\nreturn p, f",
			[][]string{{"x.exe.exe", "/etc/passwd"}}},
		{"dependency path, backward in time",
			"backward: file f <-[read] proc p <-[start] proc q\nreturn f, q",
			[][]string{{"/etc/passwd", "x.exe.exe"}}},
		{"count after distinct", `proc p read file f return count distinct p`, [][]string{{"2"}}},
		{"group by with having", "proc p read file f as e\nreturn p, sum(e.amount) as s\ngroup by p\nhaving s > 25",
			[][]string{{`C:\a\cmd.exe`, "40"}}},
		{"history before the first window reads 0, quiet windows record 0",
			"window = 1 min, step = 1 min\nproc p read file f as e\nreturn p, count(f) as n\ngroup by p\nhaving n > n[1]",
			[][]string{{"2017-03-02 00:00:00.000", `C:\a\cmd.exe`, "1"}, {"2017-03-02 00:01:00.000", "x.exe.exe", "1"},
				{"2017-03-02 00:03:00.000", `C:\a\cmd.exe`, "1"}}},
	} {
		ans, err := ev.Query(head + c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if err := ans.Check(ans.Columns, c.want); err != nil {
			t.Errorf("%s: %v (reference answered %q)", c.name, err, ans.Rows)
		}
	}
}

func TestTopAdmitsAnyTiedCut(t *testing.T) {
	ans, err := New(docData()).Query("agentid = 1\nproc p read file f as e\nreturn p, e.amount\nsort by p\ntop 1")
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"p", "e.amount"}
	for _, amount := range []string{"10", "30"} {
		if err := ans.Check(cols, [][]string{{`C:\a\cmd.exe`, amount}}); err != nil {
			t.Errorf("a cut through the tie on p rejected: %v", err)
		}
	}
	if err := ans.Check(cols, [][]string{{"x.exe.exe", "20"}}); err == nil {
		t.Error("a row past the tie accepted")
	}
	if err := ans.CheckOrder([][]string{{"x.exe.exe", "20"}, {`C:\a\cmd.exe`, "10"}}); err == nil {
		t.Error("rows out of sort order accepted")
	}
}
