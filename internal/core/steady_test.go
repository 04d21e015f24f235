package core

import (
	"context"
	"runtime"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/rng"
)

// TestInitEdgeUniformMatchesBinarySearch locks the batched sorted-draw
// placement to the per-walker binary-search reference: same seed, same
// draws, bitwise-identical walker placement.
func TestInitEdgeUniformMatchesBinarySearch(t *testing.T) {
	g := undirectedTestGraph(t, 300, 21)
	for _, walkers := range []int{1, 17, 1000, 5000} {
		got := make([]graph.VID, walkers)
		initEdgeUniform(g, got, rng.NewXorShift1024Star(99))
		want := make([]graph.VID, walkers)
		src := rng.NewXorShift1024Star(99)
		total := g.NumEdges()
		for j := range want {
			want[j] = vertexOfEdge(g, rng.Uint64n(src, total))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("walkers=%d: w[%d] = %d, reference %d", walkers, j, got[j], want[j])
			}
		}
	}
}

// TestEngineSteadyStateStepCost verifies the acceptance criterion on the
// full engine: once an episode is warm, extra steps cost zero heap
// allocations and zero net goroutines — every stage runs on the
// persistent pool (or inline on the caller) with reused scratch. Solo
// runs, ragged mixed runs and a bare BindCohort/Step loop are each held
// to it, on both step paths, on a plan whose hubs pre-sample and with
// walker counts above the sparse switch, so the PS kernels' refills are
// inside the measured steps.
func TestEngineSteadyStateStepCost(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		steadyConfig := func(workers int) Config {
			cfg := psPlanConfig()
			cfg.Workers, cfg.Seed, cfg.Metrics = workers, 7, false
			return cfg
		}
		e := newEngine(t, g, algo.DeepWalk(), steadyConfig(4))
		defer e.Close()
		if e.SparseDSVPs() == 0 || !e.bindsPlan(500) {
			t.Fatalf("runs of 500+ walkers must bind PS kernels (W* = %d, %d PS partitions)", e.SparseSwitch(), e.SparseDSVPs())
		}

		// One held session, so no concurrent run can take the warm one
		// from the engine's idle list and leave a fresh one, which
		// allocates its PS buffers and step state.
		solo, err := e.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer solo.Close()
		mallocsFor := func(steps int) uint64 {
			// One throwaway run warms every lazily-sized buffer.
			if _, err := solo.Run(2000, steps); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := solo.Run(2000, steps); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}

		short := mallocsFor(2)
		long := mallocsFor(42)
		// Per-episode setup allocates (walker arrays, RNG streams); the 40
		// extra steps must not. Allow a little noise from the runtime itself.
		const slack = 20
		if long > short+slack {
			t.Errorf("42-step run allocated %d objects vs %d for 2 steps: ~%.1f allocs per extra step, want 0",
				long, short, float64(long-short)/40)
		}

		// Goroutine count must stay flat across the step loop: the pool is
		// created with the engine, so steps spawn nothing.
		var counts []int
		e.cfg.StepSink = func(step int, cur, next []graph.VID) {
			counts = append(counts, runtime.NumGoroutine())
		}
		if _, err := e.Run(2000, 12); err != nil {
			t.Fatal(err)
		}
		e.cfg.StepSink = nil
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("goroutine count drifted during step loop: %v", counts)
			}
		}

		// The same holds for a ragged multi-cohort mixed run — retirements
		// shrink the sweep in place and the per-step cohort layout is reused —
		// and for a bare Step loop, the sharded topology's driver. Their
		// allocation counts are taken on one worker: per-worker sample
		// scratch grows to the largest chunk a worker has claimed, which
		// depends on claim order when several workers share the items.
		one := newEngine(t, g, algo.DeepWalk(), steadyConfig(1))
		defer one.Close()
		mixed := func(scale int) []Cohort {
			return []Cohort{
				{Spec: algo.DeepWalk(), Walkers: 900, Steps: 2 * scale, Seed: 1},
				{Spec: algo.Node2Vec(2, 0.5), Walkers: 500, Steps: scale, Seed: 2},
				{Spec: algo.PageRankWalk(0.85), Walkers: 600, Steps: scale + scale/2, Seed: 3},
			}
		}
		// One held session, so the warm-up run and the measured run share
		// their cohort and step state.
		held, err := one.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer held.Close()
		mixedMallocs := func(scale int) uint64 {
			if _, err := held.RunMixed(mixed(scale)); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := held.RunMixed(mixed(scale)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		short, long = mixedMallocs(2), mixedMallocs(42)
		if long > short+slack {
			t.Errorf("ragged mixed run: %d objects at 84 steps vs %d at 4: ~%.1f allocs per extra step, want 0",
				long, short, float64(long-short)/80)
		}
		counts = counts[:0]
		e.cfg.StepSink = func(step int, cur, next []graph.VID) {
			counts = append(counts, runtime.NumGoroutine())
		}
		if _, err := e.RunMixed(mixed(6)); err != nil {
			t.Fatal(err)
		}
		e.cfg.StepSink = nil
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("goroutine count drifted during mixed step loop: %v", counts)
			}
		}

		spec := algo.Node2Vec(2, 0.5)
		stepperLoop := func(s *Session, steps int, measure bool) (mallocs uint64, goroutines []int) {
			if err := s.BindCohort(0, &Cohort{Spec: spec, Walkers: 2000, Seed: 9}); err != nil {
				t.Fatal(err)
			}
			w, wNext := make([]graph.VID, 2000), make([]graph.VID, 2000)
			s.e.InitWalkersSeeded(9, w)
			aux := [][]graph.VID{append([]graph.VID(nil), w...)}
			auxNext := [][]graph.VID{make([]graph.VID, 2000)}
			offs := []uint64{0, 2000}
			var before, after runtime.MemStats
			for step := 0; step < steps; step++ {
				if step == 2 && measure {
					runtime.GC()
					runtime.ReadMemStats(&before)
				}
				if err := s.Step(step, offs, w, wNext, aux, auxNext); err != nil {
					t.Fatal(err)
				}
				w, wNext = wNext, w
				aux, auxNext = auxNext, aux
				goroutines = append(goroutines, runtime.NumGoroutine())
			}
			if measure {
				runtime.ReadMemStats(&after)
				mallocs = after.Mallocs - before.Mallocs
			}
			return mallocs, goroutines
		}
		stepperLoop(held, 42, false) // replays the measured loop's chunk sizes
		if n, _ := stepperLoop(held, 42, true); n > slack {
			t.Errorf("40 warm stepper steps allocated %d objects, want 0", n)
		}
		s, err := e.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, counts = stepperLoop(s, 12, false)
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("goroutine count drifted across stepper steps: %v", counts)
			}
		}
	})
}

// TestHeldSessionWaveAllocs bounds what a whole serving wave allocates
// once its session is warm: the step state is held, so the second
// RunMixed of two 1-walker cohorts on BenchmarkSparseMixedWave's plan of
// over 1,500 partitions allocates only its results, under 32 KiB.
func TestHeldSessionWaveAllocs(t *testing.T) {
	e := sparseWaveEngine(t, false)
	defer e.Close()
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cohorts := sparseWave(1)
	if _, err := s.RunMixed(cohorts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.RunMixed(cohorts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 32<<10 {
		t.Errorf("warm 1-walker wave allocated %d B in %d objects, want under 32 KiB",
			bytes, after.Mallocs-before.Mallocs)
	}
}

// TestRecordingRunAllocatesOnlyItsHistory bounds what a warm recording
// run on a held session allocates: its walkers step through the history
// itself, so beyond the (steps+1) × walkers VIDs of the history rows it
// may allocate only its result — the VPSteps copy plus 16 KiB of slack
// for headers, views and the flat buffer's page rounding. A driver that
// grew its own walker arrays or copied each row into the history would
// exceed it, and the session must still hold no walker arrays of its
// own afterwards. The legs are one solo run and one ragged mixed run,
// whose rows shrink as cohorts retire.
func TestRecordingRunAllocatesOnlyItsHistory(t *testing.T) {
	g := undirectedTestGraph(t, 600, 3)
	cfg := psPlanConfig()
	cfg.Metrics = false
	cfg.RecordHistory = true
	e := newEngine(t, g, algo.DeepWalk(), cfg)
	defer e.Close()
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cohorts := []Cohort{
		{Spec: algo.DeepWalk(), Walkers: 12000, Steps: 8, Seed: 2},
		{Spec: algo.Node2Vec(2, 0.5), Walkers: 6000, Steps: 5, Seed: 3},
		{Spec: algo.DeepWalk(), Walkers: 3000, Steps: 3, Seed: 4},
	}
	var mixedRows uint64
	for _, c := range cohorts {
		mixedRows += c.Walkers * uint64(c.Steps+1)
	}
	for _, leg := range []struct {
		name string
		vids uint64 // history size, in VIDs
		run  func() error
	}{
		{"solo", 20000 * 11, func() error { _, err := s.RunSeeded(1, 20000, 10); return err }},
		{"mixed", mixedRows, func() error { _, err := s.RunMixed(cohorts); return err }},
	} {
		if err := leg.run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := leg.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bound := leg.vids*4 + 8*uint64(e.plan.NumVPs()) + 16<<10
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > bound {
			t.Errorf("%s: warm recording run allocated %d B in %d objects; its history holds %d B, bound %d B",
				leg.name, bytes, after.Mallocs-before.Mallocs, leg.vids*4, bound)
		}
		if len(s.w) != 0 || len(s.wNext) != 0 {
			t.Errorf("%s: recording runs left the session holding walker arrays of %d and %d", leg.name, len(s.w), len(s.wNext))
		}
	}
}

// TestEngineRaceMultiWorker exercises the pooled pipeline — shuffle
// phases, parallel inner shuffle, sample stage — with many workers and
// aux channels so `go test -race` can check the barriers. Also serves as
// a correctness smoke test for walks produced through the pooled path,
// and through the inline path beside it.
func TestEngineRaceMultiWorker(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 300, 23)
		for _, spec := range []algo.Spec{algo.DeepWalk(), algo.Node2Vec(2, 0.5)} {
			e := newEngine(t, g, spec, Config{
				Workers:       8,
				Seed:          11,
				RecordHistory: true,
				Part:          part.Config{TargetGroups: 16},
			})
			res, err := e.Run(4000, 6)
			if err != nil {
				t.Fatal(err)
			}
			checkPathsAreWalks(t, g, res.History)
			e.Close()
		}
	})
}

// TestSparseRunsHoldNoPSState pins the cost side of the sparse template
// on a plan that pre-samples its hubs. On a pooled session, runs below
// the sparse switch — solo, mixed and through Step — allocate
// nothing per extra step and leave the session and every cohort slot
// without PS buffers; a plan-template run afterwards allocates them and
// is bitwise-identical to the same run on a fresh session, as is a
// second plan-template run on the same session.
func TestSparseRunsHoldNoPSState(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		cfg := psPlanConfig()
		cfg.Workers = 1
		cfg.RecordHistory = true
		e := newEngine(t, g, algo.DeepWalk(), cfg)
		defer e.Close()
		sparse := e.SparseSwitch() - 1
		s, err := e.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		const slack = 20
		mallocs := func(run func(steps int)) (short, long uint64) {
			measure := func(steps int) uint64 {
				run(steps) // warms every lazily-sized buffer
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run(steps)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			return measure(2), measure(42)
		}
		solo := func(steps int) {
			if _, err := s.RunSeeded(5, sparse, steps); err != nil {
				t.Fatal(err)
			}
		}
		mixed := func(steps int) {
			if _, err := s.RunMixed([]Cohort{
				{Spec: algo.DeepWalk(), Walkers: sparse, Steps: steps, Seed: 1},
				{Spec: algo.Node2Vec(2, 0.5), Walkers: 3, Steps: steps / 2, Seed: 2},
				{Spec: algo.PageRankWalk(0.85), Walkers: 1, Steps: steps, Seed: 3},
			}); err != nil {
				t.Fatal(err)
			}
		}
		e.cfg.RecordHistory = false // history rows are per-step allocations
		for name, run := range map[string]func(int){"solo": solo, "mixed": mixed} {
			if short, long := mallocs(run); long > short+slack {
				t.Errorf("sparse %s run: %d objects at 42 steps vs %d at 2, want 0 per extra step", name, long, short)
			}
		}
		e.cfg.RecordHistory = true
		if err := s.BindCohort(0, &Cohort{Spec: algo.DeepWalk(), Walkers: sparse}); err != nil {
			t.Fatal(err)
		}
		for k, cs := range s.cohorts {
			if cs.ps != nil {
				t.Errorf("cohort slot %d allocated PS state for sparse cohorts", k)
			}
		}

		plan := func(s *Session) *Result {
			res, err := s.RunSeeded(9, e.SparseSwitch(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if psSteps(t, res.Report) == 0 {
				t.Fatal("run at the sparse switch ran no PS kernel")
			}
			return res
		}
		after := plan(s)
		if s.cohorts[0].ps == nil {
			t.Error("plan-template run did not allocate PS state")
		}
		again := plan(s)
		fresh, err := e.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		want := plan(fresh)
		if !historiesEqual(after.History, want.History) {
			t.Error("plan-template run after sparse runs diverged from a fresh session's")
		}
		if !historiesEqual(again.History, want.History) {
			t.Error("second plan-template run on one session diverged from a fresh session's")
		}
	})
}
