package core

import (
	"context"
	"slices"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/walk"
)

// heldOutcome is what one run reported: its per-partition counts, stage
// split, episode count and per-cohort histories.
type heldOutcome struct {
	vpSteps  []uint64
	times    StageTimes
	episodes int
	hists    []*walk.History
}

// TestHeldSessionMatchesFresh pins the session-held step state: one held
// session runs a sequence that grows and shrinks its walker, channel and
// cohort counts and flips its runs between the plan's and the sparse
// kernel template, and every run must equal, bitwise in trajectories and
// VPSteps, the same run on a fresh session. A run's Result must not
// alias the held state: after the whole sequence every earlier Result
// still reports what it did when it returned.
func TestHeldSessionMatchesFresh(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		cfg := psPlanConfig()
		cfg.RecordHistory = true
		cfg.MemoryBudget = 12 * 5000 // 5,000 DeepWalk walkers per episode
		build := func() *Engine { return newEngine(t, g, algo.DeepWalk(), cfg) }
		e := build()
		defer e.Close()
		if ws := e.SparseSwitch(); ws <= 150 || ws >= 5000 {
			t.Fatalf("W* = %d: the sequence needs 150 < W* < 5000", ws)
		}
		held, err := e.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer held.Close()
		onFresh := func(run func(*Session) heldOutcome) heldOutcome {
			ref := build()
			defer ref.Close()
			s, err := ref.NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			return run(s)
		}

		mixed := func(cohorts ...Cohort) func(*Session) heldOutcome {
			return func(s *Session) heldOutcome {
				res, err := s.RunMixed(cohorts)
				if err != nil {
					t.Fatal(err)
				}
				o := heldOutcome{vpSteps: res.VPSteps, times: res.StageTimes, episodes: 1}
				for _, c := range res.Cohorts {
					o.hists = append(o.hists, c.History)
				}
				return o
			}
		}
		seeded := func(seed, walkers uint64, steps int) func(*Session) heldOutcome {
			return func(s *Session) heldOutcome {
				res, err := s.RunSeeded(seed, walkers, steps)
				if err != nil {
					t.Fatal(err)
				}
				return heldOutcome{vpSteps: res.VPSteps, times: res.StageTimes, episodes: res.Episodes,
					hists: []*walk.History{res.History}}
			}
		}
		runs := []struct {
			name     string
			episodes int
			run      func(*Session) heldOutcome
		}{
			{"1-walker cohort", 1, mixed(Cohort{Spec: algo.DeepWalk(), Walkers: 1, Steps: 6, Seed: 1})},
			{"5000 walkers above W*", 1, seeded(2, 5000, 4)},
			{"3 cohorts, 1 and 2 aux channels", 1, mixed(
				Cohort{Spec: algo.DeepWalk(), Walkers: 200, Steps: 3, Seed: 3},
				Cohort{Spec: algo.Node2Vec(2, 0.5), Walkers: 50, Steps: 5, Seed: 4},
				Cohort{Spec: algo.SelfAvoiding(2, 4, 0.1), Walkers: 30, Steps: 4, Seed: 5},
			)},
			{"3 walkers", 1, seeded(6, 3, 5)},
			// The ragged second episode falls below W* and keeps the first
			// episode's plan template.
			{"two episodes under the budget", 2, seeded(7, 5150, 3)},
		}
		type kept struct {
			saved heldOutcome
			got   heldOutcome
			want  heldOutcome
		}
		var results []kept
		for _, r := range runs {
			got := r.run(held)
			want := onFresh(r.run)
			if got.episodes != r.episodes || want.episodes != r.episodes {
				t.Fatalf("%s: %d held / %d fresh episodes, want %d", r.name, got.episodes, want.episodes, r.episodes)
			}
			if !slices.Equal(got.vpSteps, want.vpSteps) {
				t.Fatalf("%s: held VPSteps differ from a fresh session's", r.name)
			}
			for c := range want.hists {
				if !historiesEqual(got.hists[c], want.hists[c]) {
					t.Fatalf("%s: cohort %d's trajectories differ from a fresh session's", r.name, c)
				}
			}
			results = append(results, kept{
				saved: heldOutcome{vpSteps: slices.Clone(got.vpSteps), times: got.times},
				got:   got, want: want,
			})
		}

		// A BindCohort/Step loop whose walker count shrinks, then grows
		// past every earlier size.
		spec := algo.Node2Vec(2, 0.5)
		const most = 6000
		loop := func(s *Session) [][]graph.VID {
			if err := s.BindCohort(0, &Cohort{Spec: spec, Walkers: most, Seed: 8}); err != nil {
				t.Fatal(err)
			}
			w, wNext := make([]graph.VID, most), make([]graph.VID, most)
			s.e.InitWalkersSeeded(8, w)
			prev, prevNext := slices.Clone(w), make([]graph.VID, most)
			var rows [][]graph.VID
			for step, n := range []int{300, 40, 1, 0, 700, most} {
				aux, auxNext := [][]graph.VID{prev[:n]}, [][]graph.VID{prevNext[:n]}
				if err := s.Step(step, []uint64{0, uint64(n)}, w, wNext, aux, auxNext); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, slices.Clone(wNext[:n]))
				copy(w[:n], wNext[:n])
				copy(prev[:n], prevNext[:n])
			}
			return rows
		}
		got := loop(held)
		var want [][]graph.VID
		var wantVP []uint64
		onFresh(func(s *Session) heldOutcome {
			want = loop(s)
			wantVP = slices.Clone(s.VPSteps())
			return heldOutcome{}
		})
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatal("held Step loop diverged from a fresh session's")
		}
		// Steps accumulate on the counters of the session's last run.
		last := results[len(results)-1].saved.vpSteps
		for vp, n := range held.VPSteps() {
			if n-last[vp] != wantVP[vp] {
				t.Fatalf("Step loop VPSteps[%d] = %d on the held session, %d on a fresh one", vp, n-last[vp], wantVP[vp])
			}
		}

		for i, r := range results {
			if !slices.Equal(r.got.vpSteps, r.saved.vpSteps) || r.got.times != r.saved.times {
				t.Errorf("%s: Result counters changed after later runs", runs[i].name)
			}
			for c := range r.want.hists {
				if !historiesEqual(r.got.hists[c], r.want.hists[c]) {
					t.Errorf("%s: cohort %d's History changed after later runs", runs[i].name, c)
				}
			}
		}
	})
}
