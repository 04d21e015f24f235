package core

import (
	"context"
	"strings"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// overlayRun executes one RunSeeded on a fresh overlay session.
func overlayRun(t *testing.T, e *Engine, ov *Overlay, seed uint64, walkers uint64, steps int) *Result {
	t.Helper()
	s, err := e.NewSessionOverlay(context.Background(), ov)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunSeeded(seed, walkers, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// overlayDelta builds a small delta batch inside the engine's vertex space:
// edges between the low-degree tail and scattered targets, plus a couple of
// duplicates and one edge already in the base (all must dedup cleanly).
func overlayDelta(g *graph.CSR) []graph.Edge {
	n := g.NumVertices()
	delta := []graph.Edge{
		{Src: n - 1, Dst: 0},
		{Src: n - 1, Dst: n / 2},
		{Src: n - 1, Dst: n / 2}, // in-batch duplicate
		{Src: n - 2, Dst: 1},
		{Src: n / 2, Dst: n - 3},
		{Src: 3, Dst: n - 4},
	}
	if adj := g.Neighbors(5); len(adj) > 0 {
		delta = append(delta, graph.Edge{Src: 5, Dst: adj[0]}) // already in base
	}
	return delta
}

// TestBuildOverlayRejects pins the admission rules: weighted builds and
// out-of-range endpoints are refused, and a batch that fully dedups against
// the base collapses to a nil overlay.
func TestBuildOverlayRejects(t *testing.T) {
	g := undirectedTestGraph(t, 400, 9)
	cfg := Config{Workers: 2, Seed: 5, Planner: PlannerMCKP,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1}}
	e := newEngine(t, g, algo.DeepWalk(), cfg)
	defer e.Close()

	if _, err := BuildOverlay(e, []graph.Edge{{Src: g.NumVertices(), Dst: 0}}); err == nil {
		t.Fatal("BuildOverlay accepted an endpoint beyond |V|")
	}

	// Every delta edge already present in base → nil overlay, no error.
	var dup []graph.Edge
	for _, w := range g.Neighbors(7) {
		dup = append(dup, graph.Edge{Src: 7, Dst: w})
	}
	ov, err := BuildOverlay(e, dup)
	if err != nil {
		t.Fatal(err)
	}
	if ov != nil {
		t.Fatalf("fully-deduped batch built an overlay with %d edges", ov.DeltaEdges())
	}

	wres, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 0, Weight: 2}},
		graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	wspec := algo.DeepWalk()
	wspec.Weighted = true
	we := newEngine(t, graph.SortByDegreeDesc(wres.Graph).Graph,
		wspec, Config{Workers: 1, Seed: 1})
	defer we.Close()
	if _, err := BuildOverlay(we, []graph.Edge{{Src: 0, Dst: 1}}); err == nil {
		t.Fatal("BuildOverlay accepted a weighted build")
	}
}

// TestOverlayWalksAreUnionWalks: every transition an overlay session records
// must follow an edge of base ∪ delta — the merged graph a compaction of the
// same batch would build — and the run must be bitwise-reproducible.
func TestOverlayWalksAreUnionWalks(t *testing.T) {
	for _, planner := range []struct {
		name string
		p    PlannerKind
	}{
		{"mckp", PlannerMCKP},
		{"uniform-ps", PlannerUniformPS},
	} {
		t.Run(planner.name, func(t *testing.T) {
			g := undirectedTestGraph(t, 600, 3)
			cfg := Config{Workers: 4, Seed: 11, Planner: planner.p, RecordHistory: true, Metrics: true,
				Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1}}
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			defer e.Close()
			// At least W* walkers, so the uniform-PS leg runs the overlay
			// over the plan's PS kernels.
			walkers := max(500, e.SparseSwitch())

			delta := overlayDelta(g)
			ov, err := BuildOverlay(e, delta)
			if err != nil {
				t.Fatal(err)
			}
			if ov == nil || ov.DeltaEdges() == 0 || ov.TouchedVPs() == 0 {
				t.Fatal("delta batch built an empty overlay")
			}

			union, err := graph.MergeEdges(g, delta)
			if err != nil {
				t.Fatal(err)
			}
			a := overlayRun(t, e, ov, 77, walkers, 6)
			checkPathsAreWalks(t, union, a.History)
			if planner.p == PlannerUniformPS && psSteps(t, a.Report) == 0 {
				t.Fatalf("uniform-PS overlay run of %d walkers ran no PS kernel (W* = %d)", walkers, e.SparseSwitch())
			}

			b := overlayRun(t, e, ov, 77, walkers, 6)
			if !historiesEqual(a.History, b.History) {
				t.Fatal("same seed on fresh overlay sessions diverged")
			}
		})
	}
}

// TestOverlayFirstDivergenceIsInTouchedPartition compares an overlay run
// against the plain run of the same seed: before any walker draws inside a
// touched partition the two runs are in lockstep (untouched partitions use
// the unmodified kernels, same chunks, same seeds), so every walker that
// diverges at the run's globally earliest divergent step must have been
// standing in a touched partition. That is the zero-overhead claim made
// bitwise: untouched partitions cannot be first to change.
func TestOverlayFirstDivergenceIsInTouchedPartition(t *testing.T) {
	g := undirectedTestGraph(t, 600, 3)
	cfg := Config{Workers: 4, Seed: 11, Planner: PlannerMCKP, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1}}
	e := newEngine(t, g, algo.DeepWalk(), cfg)
	defer e.Close()

	ov, err := BuildOverlay(e, overlayDelta(g))
	if err != nil {
		t.Fatal(err)
	}
	base := seededRun(t, e, 77, 500, 6)
	over := overlayRun(t, e, ov, 77, 500, 6)

	lk := e.plan.Lookup()
	first := -1
	for i := 1; i < base.History.NumSteps(); i++ {
		for j := 0; j < base.History.NumWalkers(); j++ {
			if base.History.At(i, j) != over.History.At(i, j) {
				first = i
				break
			}
		}
		if first >= 0 {
			break
		}
	}
	if first < 0 {
		t.Fatal("overlay run never diverged from base (delta edges unreachable?)")
	}
	for j := 0; j < base.History.NumWalkers(); j++ {
		if base.History.At(first, j) == over.History.At(first, j) {
			continue
		}
		prev := base.History.At(first-1, j)
		if !ov.touched(lk.VPOf(prev)) {
			t.Fatalf("walker %d first diverged at step %d from vertex %d in untouched partition %d",
				j, first, prev, lk.VPOf(prev))
		}
	}
}

// TestOverlaySpecRestriction: non-empty overlays admit only first-order
// history-free walks — solo and mixed alike — while nil overlays behave
// exactly like plain sessions.
func TestOverlaySpecRestriction(t *testing.T) {
	g := undirectedTestGraph(t, 400, 6)
	cfg := Config{Workers: 2, Seed: 5, Planner: PlannerMCKP,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1}}
	e := newEngine(t, g, algo.Node2Vec(0.5, 2), cfg)
	defer e.Close()

	ov, err := BuildOverlay(e, overlayDelta(g))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSessionOverlay(context.Background(), ov)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunSeeded(1, 100, 3); err == nil ||
		!strings.Contains(err.Error(), "first-order") {
		t.Fatalf("second-order solo run on overlay session: err = %v, want first-order rejection", err)
	}
	if _, err := s.RunMixed([]Cohort{
		{Spec: algo.DeepWalk(), Walkers: 50, Steps: 2, Seed: 1},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 50, Steps: 2, Seed: 2},
	}); err == nil || !strings.Contains(err.Error(), "first-order") {
		t.Fatalf("second-order cohort on overlay session: err = %v, want first-order rejection", err)
	}
	if _, err := s.RunMixed([]Cohort{
		{Spec: algo.DeepWalk(), Walkers: 50, Steps: 2, Seed: 1},
		{Spec: algo.PageRankWalk(0.85), Walkers: 50, Steps: 2, Seed: 2},
	}); err != nil {
		t.Fatalf("first-order cohorts on overlay session: %v", err)
	}

	// A pooled session reacquired without an overlay must shed it.
	s2, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ov != nil {
		t.Fatal("plain session reacquired from the pool kept an overlay")
	}
	if _, err := s2.RunSeeded(1, 100, 3); err != nil {
		t.Fatalf("second-order run on plain session after overlay session: %v", err)
	}
	if s2.cohorts[0].cx.ov != nil {
		t.Fatal("run on a plain session bound a stale overlay")
	}
}
