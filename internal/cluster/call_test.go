package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/obs"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/stream"
)

// TestWorkerCallsCarryTraceID: every request a coordinator makes to a
// worker carries the caller's trace ID, on every route: ingest, scan, rule
// registration, listing, subscription and deletion.
func TestWorkerCallsCarryTraceID(t *testing.T) {
	var mu sync.Mutex
	traces := make(map[string][]string) // route → the trace IDs it carried
	ws := make([]*worker, 3)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: st}
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			route := r.Method + " " + r.URL.Path
			for _, prefix := range []string{"/rules/", "/subscribe/"} {
				if strings.HasPrefix(r.URL.Path, prefix) {
					route = r.Method + " " + prefix + "{id}"
				}
			}
			mu.Lock()
			traces[route] = append(traces[route], r.Header.Get(obs.TraceIDHeader))
			mu.Unlock()
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.srv.Close)
		ws[i] = w
	}
	coord, err := cluster.New(workerURLs(ws), cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := obs.NewTraceID()
	ctx := obs.WithTrace(context.Background(), obs.NewTrace(id))

	const src = "proc p read file f return p, f"
	if err := coord.Ingest(ctx, gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 50, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(coord, engine.Options{}).QueryContext(ctx, src); err != nil {
		t.Fatal(err)
	}
	info, err := coord.RegisterRule(ctx, stream.RuleSpec{Query: src, WindowMs: streamWindowMs, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rules(ctx); err != nil {
		t.Fatal(err)
	}
	rs, _, err := coord.SubscribeRule(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-rs.C():
	case <-time.After(10 * time.Second):
		t.Fatal("no emission from the subscription")
	}
	rs.Close()
	if err := coord.DeleteRule(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{"DELETE /rules/{id}", "GET /rules", "GET /subscribe/{id}", "POST /ingest", "POST /rules", "POST /scan"}
	routes := make([]string, 0, len(traces))
	for route := range traces {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	if strings.Join(routes, ", ") != strings.Join(want, ", ") {
		t.Errorf("workers saw routes %v, want %v", routes, want)
	}
	for _, route := range routes {
		for _, got := range traces[route] {
			if got != id {
				t.Errorf("%s carried trace %q, want %q", route, got, id)
				break
			}
		}
	}
}

// TestWorkerCallRefusals: a caller of cluster.Call branches on the refusal's
// *cluster.StatusError: a 400 from /ingest is not retried, a 404 on a rule
// delete counts as deleted, and a 500 from /walship fails a catch-up, each
// error naming the status.
func TestWorkerCallRefusals(t *testing.T) {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 5, Seed: 1})
	for _, tc := range []struct {
		name  string
		route string // refused with code; every other request answers 200
		code  int
		call  func(t *testing.T, peer string) error
		want  int // the status the caller's error carries; 0: no error
	}{
		{"ingest 400 is not retried", "POST /ingest", http.StatusBadRequest, func(t *testing.T, peer string) error {
			coord, err := cluster.New([]string{peer}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			err = coord.Ingest(context.Background(), ds)
			if n := coord.Stats().IngestRetries; n != 0 {
				t.Errorf("a 400 was retried %d times", n)
			}
			return err
		}, http.StatusBadRequest},
		{"rule delete 404 is deleted", "DELETE /rules/", http.StatusNotFound, func(t *testing.T, peer string) error {
			coord, err := cluster.New([]string{peer}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			info, err := coord.RegisterRule(context.Background(), stream.RuleSpec{Query: "proc p read file f return p", WindowMs: streamWindowMs})
			if err != nil {
				t.Fatal(err)
			}
			return coord.DeleteRule(context.Background(), info.ID)
		}, 0},
		{"walship 500 fails catch-up", "GET /walship", http.StatusInternalServerError, func(t *testing.T, peer string) error {
			p, err := storage.OpenPersistent(t.TempDir(), storage.PersistOptions{FlushInterval: -1, CompactInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			_, err = server.CatchUp(context.Background(), p, peer, nil)
			return err
		}, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			hits := 0
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.Method+" "+r.URL.Path, tc.route) {
					mu.Lock()
					hits++
					mu.Unlock()
					http.Error(w, "injected refusal", tc.code)
				}
			}))
			t.Cleanup(peer.Close)
			err := tc.call(t, peer.URL)
			var se *cluster.StatusError
			switch {
			case tc.want == 0 && err != nil:
				t.Fatalf("error %v, want the refusal absorbed", err)
			case tc.want != 0 && (!errors.As(err, &se) || se.Code != tc.want):
				t.Fatalf("error %v (%T), want a *cluster.StatusError with code %d", err, err, tc.want)
			case tc.want != 0 && !strings.Contains(err.Error(), strconv.Itoa(tc.want)):
				t.Errorf("error %q does not name status %d", err, tc.want)
			}
			mu.Lock()
			defer mu.Unlock()
			if hits != 1 {
				t.Errorf("%s was requested %d times, want once", tc.route, hits)
			}
		})
	}
}
