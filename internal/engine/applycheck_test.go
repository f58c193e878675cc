package engine_test

import (
	"testing"

	"aiql/internal/engine"
	"aiql/internal/graphstore"
	"aiql/internal/storage"
)

func TestApplyJoinAgreesOnStoreAndGraph(t *testing.T) {
	src := `
		agentid = 2
		(at "03/02/2017")
		proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
		proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
		proc p4["%sbblv.exe"] read file f1 as evt3
		with evt1 before evt2, evt2 before evt3
		return distinct p1, p2, p3, f1, p4
		sort by p4`
	st := storage.New(storage.Options{})
	st.Ingest(testDataset())
	want, err := engine.New(st, engine.Options{}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reference rows: %d", len(want.Rows))

	ap, err := engine.New(st, engine.Options{ApplyJoin: true}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Rows) != len(want.Rows) {
		t.Errorf("apply on store: %d rows, want %d", len(ap.Rows), len(want.Rows))
	}

	g := graphstore.New()
	g.Ingest(testDataset())
	gp, err := engine.New(g, engine.Options{ApplyJoin: true}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Rows) != len(want.Rows) {
		t.Errorf("apply on graph: %d rows, want %d", len(gp.Rows), len(want.Rows))
	}

	// Also plain graph without apply.
	gg, err := engine.New(g, engine.Options{Strategy: engine.StrategyBigJoin, NoHashJoin: true}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(gg.Rows) != len(want.Rows) {
		t.Errorf("bigjoin on graph: %d rows, want %d", len(gg.Rows), len(want.Rows))
	}
}
