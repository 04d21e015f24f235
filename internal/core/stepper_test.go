package core

import (
	"context"
	"slices"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// stepperWalk drives a full walker population through the session's
// wave step as a one-segment wave — the way the sharded topology does,
// minus the exchange — and records the per-step positions.
func stepperWalk(t *testing.T, e *Engine, spec *algo.Spec, seed uint64, walkers, steps int) [][]graph.VID {
	t.Helper()
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BindCohort(0, &Cohort{Spec: *spec, Walkers: uint64(walkers), Seed: seed}); err != nil {
		t.Fatal(err)
	}

	w := make([]graph.VID, walkers)
	wNext := make([]graph.VID, walkers)
	e.InitWalkersSeeded(seed, w)
	channels := auxChannelsFor(spec)
	aux := make([][]graph.VID, channels)
	auxNext := make([][]graph.VID, channels)
	for c := 0; c < channels; c++ {
		aux[c] = make([]graph.VID, walkers)
		auxNext[c] = make([]graph.VID, walkers)
		copy(aux[c], w)
	}

	rows := make([][]graph.VID, 0, steps+1)
	rows = append(rows, append([]graph.VID(nil), w...))
	offs := []uint64{0, uint64(walkers)}
	for step := 0; step < steps; step++ {
		if err := s.Step(step, offs, w, wNext, aux, auxNext); err != nil {
			t.Fatal(err)
		}
		w, wNext = wNext, w
		aux, auxNext = auxNext, aux
		rows = append(rows, append([]graph.VID(nil), w...))
	}
	return rows
}

// TestStepperMatchesRunSeeded pins the Step contract: stepping a
// one-segment wave one step at a time reproduces the closed RunSeeded loop
// bitwise, across kernel families (DS, node2vec aux channels, stop-prob
// restarts) and with sub-sharding forced on.
func TestStepperMatchesRunSeeded(t *testing.T) {
	defer func(old uint64) { SubShardSize = old }(SubShardSize)
	SubShardSize = 32

	g := undirectedTestGraph(t, 600, 9)
	cfg := Config{
		Workers: 4, Seed: 11, Planner: PlannerMCKP, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
	for _, tc := range []struct {
		name string
		spec algo.Spec
	}{
		{"deepwalk", algo.DeepWalk()},
		{"node2vec", algo.Node2Vec(0.5, 2)},
		{"pagerank", algo.PageRankWalk(0.85)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				e := newEngine(t, g, tc.spec, cfg)
				defer e.Close()
				const (
					seed    = 4242
					walkers = 300
					steps   = 6
				)
				ref := seededRun(t, e, seed, walkers, steps)
				rows := stepperWalk(t, e, &tc.spec, seed, walkers, steps)
				if len(rows) != ref.History.NumSteps() {
					t.Fatalf("stepper recorded %d rows, reference %d", len(rows), ref.History.NumSteps())
				}
				for i, row := range rows {
					for j, v := range row {
						if want := ref.History.At(i, j); v != want {
							t.Fatalf("step %d walker %d: stepper %d, RunSeeded %d", i, j, v, want)
						}
					}
				}
			})
		})
	}
}

// TestStepperResize steps a shrinking then regrowing walker prefix —
// the shard runtime's fluctuating local population — and checks each
// step still advances along graph edges. Stepping past the largest
// count so far grows the session's step state, and the step equals a
// fresh session's. Slots bound before the session's acquisition are
// unbound.
func TestStepperResize(t *testing.T) {
	g := undirectedTestGraph(t, 400, 2)
	cfg := Config{
		Workers: 2, Seed: 5, Planner: PlannerMCKP,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
	e := newEngine(t, g, algo.DeepWalk(), cfg)
	defer e.Close()
	// Bind slots 0 and 1 on the session the engine hands out next.
	if _, err := e.RunMixed([]Cohort{
		{Spec: algo.DeepWalk(), Walkers: 20, Steps: 2, Seed: 1},
		{Spec: algo.DeepWalk(), Walkers: 20, Steps: 1, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Cohort{Spec: algo.DeepWalk(), Walkers: 200, Seed: 7}
	if err := s.BindCohort(0, c); err != nil {
		t.Fatal(err)
	}
	const grown = 1000
	w := make([]graph.VID, grown)
	wNext := make([]graph.VID, grown)
	e.InitWalkersSeeded(7, w)
	for step, n := range []int{200, 120, 37, 0, 120, 200} {
		if err := s.Step(step, []uint64{0, uint64(n)}, w, wNext, nil, nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			u, v := w[j], wNext[j]
			ok := u == v && g.Degree(u) == 0
			for _, nb := range g.Neighbors(uint32(u)) {
				if graph.VID(nb) == v {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("step %d walker %d: %d → %d is not an edge", step, j, u, v)
			}
		}
		copy(w[:n], wNext[:n])
	}

	if err := s.Step(6, []uint64{0, grown}, w, wNext, nil, nil); err != nil {
		t.Fatalf("stepping past the largest count so far: %v", err)
	}
	ref := newEngine(t, g, algo.DeepWalk(), cfg)
	defer ref.Close()
	fresh, err := ref.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.BindCohort(0, c); err != nil {
		t.Fatal(err)
	}
	want := make([]graph.VID, grown)
	if err := fresh.Step(6, []uint64{0, grown}, w, want, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wNext, want) {
		t.Fatal("step grown past the session's capacity differs from a fresh session's")
	}
	if err := s.Step(0, []uint64{0, 5, 10}, w, wNext, nil, nil); err == nil {
		t.Fatal("stepping a slot bound before the session's acquisition accepted")
	}
}
