package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/part"
)

// mixedRun executes one RunMixed on a fresh session and returns it.
func mixedRun(t *testing.T, e *Engine, cohorts []Cohort) *MixedResult {
	t.Helper()
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunMixed(cohorts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mixedTestConfig is the shared build configuration of the mixed-run
// suite: a multi-group MCKP plan (so both PS and DS partitions are in
// play) with history recording for trajectory comparison.
func mixedTestConfig() Config {
	return Config{
		Workers: 4, Seed: 11, Planner: PlannerMCKP, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
}

// TestRunMixedSingleCohortMatchesRunSeeded is the baseline contract: a
// one-cohort mixed run is bitwise-identical to the same (spec, seed,
// walkers, steps) running through the solo RunSeeded path on an engine
// built with that spec as its primary — for first-order uniform,
// second-order node2vec, and stochastic-termination (PPR-style) walks.
func TestRunMixedSingleCohortMatchesRunSeeded(t *testing.T) {
	g := undirectedTestGraph(t, 600, 3)
	cfg := mixedTestConfig()
	for _, tc := range []struct {
		name string
		spec algo.Spec
	}{
		{"deepwalk", algo.DeepWalk()},
		{"node2vec", algo.Node2Vec(4, 0.25)},
		{"pagerank", algo.PageRankWalk(0.85)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				solo := newEngine(t, g, tc.spec, cfg)
				defer solo.Close()
				ref := seededRun(t, solo, 77, 400, 6)

				// The mixed host deliberately uses a different primary spec:
				// cohort kernels must come from the cohort's spec, not the
				// build's.
				host := newEngine(t, g, algo.DeepWalk(), cfg)
				defer host.Close()
				res := mixedRun(t, host, []Cohort{
					{Spec: tc.spec, Walkers: 400, Steps: 6, Seed: 77},
				})
				if !historiesEqual(ref.History, res.Cohorts[0].History) {
					t.Fatal("single-cohort mixed run diverged from solo RunSeeded")
				}
				if res.TotalSteps != ref.TotalSteps || res.Walkers != ref.Walkers {
					t.Fatalf("accounting mismatch: mixed %d/%d vs solo %d/%d",
						res.Walkers, res.TotalSteps, ref.Walkers, ref.TotalSteps)
				}
			})
		})
	}
}

// TestRunMixedCohortInvariance is the tentpole determinism property: a
// cohort's trajectories are a pure function of its own (spec, seed,
// walkers, steps), unperturbed by what rides alongside — the same walk is
// bitwise-identical alone, co-batched with same-algorithm cohorts, and
// co-batched with different-algorithm cohorts of different lengths.
func TestRunMixedCohortInvariance(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		e := newEngine(t, g, algo.DeepWalk(), mixedTestConfig())
		defer e.Close()

		probe := Cohort{Spec: algo.DeepWalk(), Walkers: 300, Steps: 5, Seed: 99}
		alone := mixedRun(t, e, []Cohort{probe})

		sameAlgo := mixedRun(t, e, []Cohort{
			{Spec: algo.DeepWalk(), Walkers: 128, Steps: 5, Seed: 1},
			probe,
			{Spec: algo.DeepWalk(), Walkers: 64, Steps: 5, Seed: 2},
		})
		if !historiesEqual(alone.Cohorts[0].History, sameAlgo.Cohorts[1].History) {
			t.Fatal("cohort perturbed by same-algorithm neighbors")
		}

		mixedAlgo := mixedRun(t, e, []Cohort{
			{Spec: algo.Node2Vec(4, 0.25), Walkers: 128, Steps: 8, Seed: 3},
			probe,
			{Spec: algo.PageRankWalk(0.85), Walkers: 64, Steps: 3, Seed: 4},
			{Spec: algo.SelfAvoiding(3, 5, 0.001), Walkers: 32, Steps: 5, Seed: 5},
		})
		if !historiesEqual(alone.Cohorts[0].History, mixedAlgo.Cohorts[1].History) {
			t.Fatal("cohort perturbed by different-algorithm neighbors")
		}

		// And the neighbors themselves reproduce when run alone.
		n2vAlone := mixedRun(t, e, []Cohort{{Spec: algo.Node2Vec(4, 0.25), Walkers: 128, Steps: 8, Seed: 3}})
		if !historiesEqual(n2vAlone.Cohorts[0].History, mixedAlgo.Cohorts[0].History) {
			t.Fatal("node2vec cohort perturbed by co-batched cohorts")
		}
		sawAlone := mixedRun(t, e, []Cohort{{Spec: algo.SelfAvoiding(3, 5, 0.001), Walkers: 32, Steps: 5, Seed: 5}})
		if !historiesEqual(sawAlone.Cohorts[0].History, mixedAlgo.Cohorts[3].History) {
			t.Fatal("order-k cohort perturbed by co-batched cohorts")
		}
	})
}

// TestRunMixedRaggedRetirement pins the shrinking-sweep behavior: cohorts
// with shorter walks retire without padding — each cohort's history spans
// exactly its own Steps+1 positions and still matches its solo run, and
// results come back in caller order despite the longest-first execution
// order.
func TestRunMixedRaggedRetirement(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		e := newEngine(t, g, algo.DeepWalk(), mixedTestConfig())
		defer e.Close()

		cohorts := []Cohort{
			{Spec: algo.DeepWalk(), Walkers: 64, Steps: 1, Seed: 10},
			{Spec: algo.DeepWalk(), Walkers: 128, Steps: 7, Seed: 11},
			{Spec: algo.DeepWalk(), Walkers: 96, Steps: 3, Seed: 12},
		}
		res := mixedRun(t, e, cohorts)
		var total uint64
		for i, c := range cohorts {
			got := res.Cohorts[i]
			if got.Walkers != c.Walkers || got.Steps != c.Steps {
				t.Fatalf("cohort %d came back as %d walkers/%d steps, want %d/%d",
					i, got.Walkers, got.Steps, c.Walkers, c.Steps)
			}
			if got.History.NumSteps() != c.Steps+1 {
				t.Fatalf("cohort %d history has %d positions, want %d",
					i, got.History.NumSteps(), c.Steps+1)
			}
			solo := mixedRun(t, e, []Cohort{c})
			if !historiesEqual(solo.Cohorts[0].History, got.History) {
				t.Fatalf("cohort %d diverged from its solo run under ragged retirement", i)
			}
			total += got.TotalSteps
		}
		if res.TotalSteps != total {
			t.Fatalf("TotalSteps = %d, want %d", res.TotalSteps, total)
		}
	})
}

// TestRunMixedWorkerCountInvariance demands identical mixed trajectories
// across worker counts — the work-item seeding discipline extended to
// per-cohort items.
func TestRunMixedWorkerCountInvariance(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		cohorts := []Cohort{
			{Spec: algo.DeepWalk(), Walkers: 200, Steps: 5, Seed: 21},
			{Spec: algo.Node2Vec(2, 0.5), Walkers: 100, Steps: 4, Seed: 22},
			{Spec: algo.PageRankWalk(0.85), Walkers: 50, Steps: 3, Seed: 23},
		}
		var ref *MixedResult
		for _, workers := range []int{1, 3, 7} {
			cfg := mixedTestConfig()
			cfg.Workers = workers
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			res := mixedRun(t, e, cohorts)
			e.Close()
			if ref == nil {
				ref = res
				continue
			}
			for i := range cohorts {
				if !historiesEqual(ref.Cohorts[i].History, res.Cohorts[i].History) {
					t.Fatalf("cohort %d diverged at %d workers", i, workers)
				}
			}
		}
	})
}

// TestRunMixedErrors covers the validation surface: empty cohort lists,
// weighted cohorts on unweighted builds, weighted second-order specs, and
// memory budgets too small for the one-episode walker arrays.
func TestRunMixedErrors(t *testing.T) {
	g := undirectedTestGraph(t, 200, 3)
	e := newEngine(t, g, algo.DeepWalk(), mixedTestConfig())
	defer e.Close()

	if _, err := e.RunMixed(nil); err == nil {
		t.Fatal("empty cohort list accepted")
	}
	wspec := algo.DeepWalk()
	wspec.Weighted = true
	if _, err := e.RunMixed([]Cohort{{Spec: wspec, Walkers: 10, Steps: 2}}); err == nil ||
		!strings.Contains(err.Error(), "weighted") {
		t.Fatalf("weighted cohort on unweighted build: got %v", err)
	}
	bad := algo.Node2Vec(1, 1)
	bad.Weighted = true
	if _, err := e.RunMixed([]Cohort{{Spec: bad, Walkers: 10, Steps: 2}}); err == nil {
		t.Fatal("weighted second-order cohort accepted")
	}

	cfg := mixedTestConfig()
	cfg.MemoryBudget = 64 // a few walkers' worth: forces the one-episode check
	tight := newEngine(t, g, algo.DeepWalk(), cfg)
	defer tight.Close()
	if _, err := tight.RunMixed([]Cohort{
		{Spec: algo.DeepWalk(), Walkers: 100, Steps: 2, Seed: 1},
	}); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("over-budget mixed run: got %v", err)
	}
}

// TestRunMixedMetrics checks the mixed-run accounting: run/mixed-run
// counters, the cohort-count histogram, and the per-walk-shape
// walker-step vector splitting the sample stage across cohorts.
func TestRunMixedMetrics(t *testing.T) {
	g := undirectedTestGraph(t, 400, 3)
	cfg := mixedTestConfig()
	cfg.Metrics = true
	e := newEngine(t, g, algo.DeepWalk(), cfg)
	defer e.Close()

	res := mixedRun(t, e, []Cohort{
		{Spec: algo.DeepWalk(), Walkers: 100, Steps: 4, Seed: 1},
		{Spec: algo.Node2Vec(4, 0.25), Walkers: 50, Steps: 2, Seed: 2},
	})
	if res.Report == nil {
		t.Fatal("metrics-enabled mixed run returned no report")
	}
	for name, want := range map[string]uint64{
		"core_runs_total":       1,
		"core_mixed_runs_total": 1,
		"core_steps_total":      4,
		"core_walkers_total":    150,
	} {
		c, ok := res.Report.Counter(name)
		if !ok {
			t.Fatalf("metric %s missing from mixed-run report", name)
		}
		if c.Value != want {
			t.Fatalf("%s = %d, want %d", name, c.Value, want)
		}
	}
	h, ok := res.Report.Histogram("core_mixed_run_cohorts")
	if !ok || h.Count != 1 || h.Sum != 2 {
		t.Fatalf("core_mixed_run_cohorts = %+v, want one observation of 2", h)
	}
	vec, ok := res.Report.Vector("core_cohort_walker_steps")
	if !ok {
		t.Fatal("core_cohort_walker_steps missing from mixed-run report")
	}
	byLabel := map[string]uint64{}
	for i, lab := range vec.Labels {
		byLabel[lab] = vec.Values[i]
	}
	if byLabel["uniform"] != 100*4 {
		t.Fatalf("uniform cohort steps = %d, want %d", byLabel["uniform"], 100*4)
	}
	if byLabel["node2vec"] != 50*2 {
		t.Fatalf("node2vec cohort steps = %d, want %d", byLabel["node2vec"], 50*2)
	}
}

// sparseWaveSteps is the walk length of sparseWave's cohorts.
const sparseWaveSteps = 32

// sparseWaveEngine builds the serving-wave benchmark's engine: a
// 2-worker uniform-DS plan of over 1,500 partitions, recording engine
// metrics when metrics is set.
func sparseWaveEngine(tb testing.TB, metrics bool) *Engine {
	tb.Helper()
	g := undirectedTestGraph(tb, 60000, 5)
	e, err := New(g, algo.DeepWalk(), Config{Workers: 2, Seed: 1, Planner: PlannerUniformDS, Metrics: metrics})
	if err != nil {
		tb.Fatal(err)
	}
	if n := e.Plan().NumVPs(); n < 1500 {
		e.Close()
		tb.Fatalf("plan has %d partitions, want at least 1500", n)
	}
	return e
}

// sparseWave is one serving-sized wave: a DeepWalk and a node2vec cohort
// of the given walker count each.
func sparseWave(walkers uint64) []Cohort {
	return []Cohort{
		{Spec: algo.DeepWalk(), Walkers: walkers, Steps: sparseWaveSteps, Seed: 1},
		{Spec: algo.Node2Vec(2, 0.5), Walkers: walkers, Steps: sparseWaveSteps, Seed: 2},
	}
}

// BenchmarkSparseMixedWave measures serving-sized mixed waves on a plan
// of over 1,500 partitions: two cohorts (DeepWalk and node2vec) of 1 or
// 128 walkers each, 32 steps, on a 2-worker engine with engine metrics
// off and on (fmserve's default). Such a wave occupies a handful of
// partitions, so its cost is the per-step bookkeeping and dispatch
// rather than walker work; ns/step is what one step of it costs, and
// the on/off gap is what the metrics cost a served walker-step.
func BenchmarkSparseMixedWave(b *testing.B) {
	for _, metrics := range []bool{false, true} {
		e := sparseWaveEngine(b, metrics)
		for _, walkers := range []uint64{1, 128} {
			b.Run(fmt.Sprintf("metrics=%s/walkers=%d", onOff(metrics), walkers), func(b *testing.B) {
				s, err := e.NewSession(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				cohorts := sparseWave(walkers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.RunMixed(cohorts); err != nil {
						b.Fatal(err)
					}
				}
				wave := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(wave, "ns/wave")
				b.ReportMetric(wave/sparseWaveSteps, "ns/step")
			})
		}
		e.Close()
	}
}

// onOff names a boolean benchmark leg.
func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
