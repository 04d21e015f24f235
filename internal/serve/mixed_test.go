package serve

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flashmob"
)

// newMixedTestServer stands up a Server whose three algorithm backends
// share one built system — the mixed-cohort serving topology cmd/fmserve
// uses.
func newMixedTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, _ := testSystem(t)
	s, err := New([]Backend{
		{Name: "deepwalk", Sys: sys, Spec: flashmob.DeepWalk()},
		{Name: "node2vec", Sys: sys, Spec: flashmob.Node2Vec(4, 0.25)},
		{Name: "pagerank", Sys: sys, Spec: flashmob.PageRankWalk(0.85)},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

// TestMixedWaveSharedRun fires one request per algorithm into a wide
// batching window and checks the wave executed as a single shared engine
// run: every response reports the same multi-cohort run instead of one
// run per algorithm.
func TestMixedWaveSharedRun(t *testing.T) {
	s, hs := newMixedTestServer(t, Config{MaxWait: 60 * time.Millisecond, Executors: 1})

	algos := []string{"deepwalk", "node2vec", "pagerank"}
	for attempt := 0; attempt < 10; attempt++ {
		results := make([]WalkResponse, len(algos))
		var wg sync.WaitGroup
		for i, a := range algos {
			wg.Add(1)
			go func(i int, a string) {
				defer wg.Done()
				status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 8, Steps: 4, Algorithm: a})
				if status != 200 {
					t.Errorf("%s: status %d body %s", a, status, data)
					return
				}
				results[i] = decodeWalk(t, data)
			}(i, a)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		shared := true
		for _, r := range results {
			if r.RunCohorts != len(algos) || r.BatchRequests != len(algos) {
				shared = false
			}
		}
		if !shared {
			continue // scheduling raced the window; try again
		}
		for i, r := range results {
			if r.Algorithm != algos[i] || len(r.Paths) != 8 || r.RunWalkers != 8 {
				t.Fatalf("%s: bad demux %+v", algos[i], r)
			}
		}
		runs, _ := s.Metrics().Counter("serve_runs_total")
		batches, _ := s.Metrics().Counter("serve_batches_total")
		if runs.Value > batches.Value {
			t.Fatalf("mixed waves should not fragment: %d runs for %d batches", runs.Value, batches.Value)
		}
		if h, ok := s.Metrics().Histogram("serve_run_cohorts"); !ok || h.Count == 0 {
			t.Fatal("serve_run_cohorts recorded nothing")
		}
		return
	}
	t.Fatal("three-algorithm wave never landed in one batch under a 60ms window")
}

// TestSeededDeterminismAcrossAlgorithms extends the seeded contract to
// mixed waves: a seeded request's trajectories are bitwise-identical
// whether it rides alone, coalesced with same-algorithm traffic, or
// coalesced with different-algorithm traffic — and match a direct
// single-cohort WalkMixed on an identically built system.
func TestSeededDeterminismAcrossAlgorithms(t *testing.T) {
	_, hs := newMixedTestServer(t, Config{MaxWait: 40 * time.Millisecond, Executors: 1})
	seed := uint64(123)
	req := WalkRequest{Walkers: 20, Steps: 5, Algorithm: "node2vec", Seed: &seed}

	// Alone: a one-request wave is a one-cohort run.
	status, data := postWalk(t, hs.URL, req)
	if status != 200 {
		t.Fatalf("alone: status %d body %s", status, data)
	}
	alone := decodeWalk(t, data)
	if alone.RunCohorts != 1 {
		t.Fatalf("lone request ran with %d cohorts, want 1", alone.RunCohorts)
	}

	// Coalesced, with same-algorithm and then cross-algorithm crowds.
	for _, crowd := range []string{"node2vec", "deepwalk"} {
		var crowded WalkResponse
		for attempt := 0; attempt < 10; attempt++ {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					postWalk(t, hs.URL, WalkRequest{Walkers: 15, Steps: 5, Algorithm: crowd})
				}()
			}
			time.Sleep(2 * time.Millisecond) // let the batch open
			status, data = postWalk(t, hs.URL, req)
			wg.Wait()
			if status != 200 {
				t.Fatalf("crowd %s: status %d body %s", crowd, status, data)
			}
			crowded = decodeWalk(t, data)
			if crowded.Coalesced {
				break
			}
		}
		if !crowded.Coalesced {
			t.Fatalf("seeded request never coalesced with the %s crowd", crowd)
		}
		if crowded.RunWalkers != 20 {
			t.Errorf("crowd %s: seeded run_walkers = %d, want its own 20", crowd, crowded.RunWalkers)
		}
		if crowded.RunCohorts < 2 {
			t.Errorf("crowd %s: run_cohorts = %d, want a shared multi-cohort run", crowd, crowded.RunCohorts)
		}
		if fmt.Sprint(alone.Paths) != fmt.Sprint(crowded.Paths) {
			t.Fatalf("seeded trajectories differ alone vs coalesced with %s traffic", crowd)
		}
	}

	// Direct single-cohort execution on an identically built system.
	sys, _ := testSystem(t)
	defer sys.Close()
	res, err := sys.WalkMixed([]flashmob.CohortSpec{
		{Algorithm: flashmob.Node2Vec(4, 0.25), Walkers: 20, Steps: 5, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(paths) != fmt.Sprint(alone.Paths) {
		t.Fatal("served trajectories differ from direct WalkMixed on an identical build")
	}
}
