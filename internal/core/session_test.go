package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// TestConcurrentRunsMatchSerial is the Engine/Session split's core
// determinism claim: N goroutines running Run concurrently on ONE engine
// must each produce trajectories bitwise-identical to the same Run
// executed alone. Sessions give every run fresh PS state and every work
// item derives its RNG stream from (seed, episode, step, vp, sub), so
// interleaving sessions on the shared pool cannot perturb any of them.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := undirectedTestGraph(t, 600, 3)
		for _, planner := range []PlannerKind{PlannerMCKP, PlannerUniformPS} {
			cfg := Config{
				Workers: 4, Seed: 11, Planner: planner, RecordHistory: true, Metrics: true,
				Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
			}
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			// At least W* walkers, so the uniform-PS leg binds the plan's
			// PS kernels and their per-session buffers.
			walkers := max(500, e.SparseSwitch())

			serial, err := e.Run(walkers, 4)
			if err != nil {
				t.Fatal(err)
			}
			if planner == PlannerUniformPS && psSteps(t, serial.Report) == 0 {
				t.Fatalf("uniform-PS run of %d walkers ran no PS kernel (W* = %d)", walkers, e.SparseSwitch())
			}

			const sessions = 6
			results := make([]*Result, sessions)
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = e.Run(walkers, 4)
				}(i)
			}
			wg.Wait()
			for i := 0; i < sessions; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				if !historiesEqual(serial.History, results[i].History) {
					t.Fatalf("planner %d: concurrent run %d diverged from the serial run", planner, i)
				}
			}
			e.Close()
		}
	})
}

// TestConcurrentRunsSecondOrder repeats the concurrent-vs-serial check on
// the node2vec path, whose PS partitions feed rejection sampling — the
// heaviest consumer of per-session buffer state.
func TestConcurrentRunsSecondOrder(t *testing.T) {
	g := undirectedTestGraph(t, 400, 7)
	e := newEngine(t, g, algo.Node2Vec(2, 0.5), Config{
		Workers: 3, Seed: 23, Planner: PlannerMCKP, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	})
	defer e.Close()

	serial, err := e.Run(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(300, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !historiesEqual(serial.History, results[i].History) {
			t.Fatalf("concurrent node2vec run %d diverged from the serial run", i)
		}
	}
}

// TestRunAfterCloseReturnsErrClosed locks the closed-engine contract: Run
// and NewSession fail fast with ErrClosed instead of hanging on (or
// panicking in) a pool whose workers have been released.
func TestRunAfterCloseReturnsErrClosed(t *testing.T) {
	g := undirectedTestGraph(t, 100, 5)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 1})
	if _, err := e.Run(50, 2); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent

	if _, err := e.Run(50, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: got %v, want ErrClosed", err)
	}
	if _, err := e.NewSession(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession after Close: got %v, want ErrClosed", err)
	}
}

// TestSessionRunAfterSessionClose checks the session-level analogue.
func TestSessionRunAfterSessionClose(t *testing.T) {
	g := undirectedTestGraph(t, 100, 5)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 1})
	defer e.Close()
	s, err := e.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Run(50, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.Run after Close: got %v, want ErrClosed", err)
	}
}

// TestSessionContextCancellation checks that a canceled context aborts a
// session's Run with the context's error instead of completing the walk.
func TestSessionContextCancellation(t *testing.T) {
	g := undirectedTestGraph(t, 200, 9)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 4})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	s, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cancel()
	if _, err := s.Run(100, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled session: got %v, want context.Canceled", err)
	}

	// A fresh session on the same engine still works: cancellation is
	// per-session, not per-engine.
	r, err := e.Run(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Walkers != 100 {
		t.Fatalf("post-cancel run advanced %d walkers, want 100", r.Walkers)
	}
}

// TestSessionReportsArePerRun locks the Result.Report semantics the split
// fixes: each ephemeral Run's report describes that run alone, a held
// session's report accumulates only that session, and the engine-lifetime
// aggregate is the fold of everything closed.
func TestSessionReportsArePerRun(t *testing.T) {
	g := undirectedTestGraph(t, 200, 9)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 4, Metrics: true})
	defer e.Close()

	counter := func(rep *Result, name string) uint64 {
		for _, c := range rep.Report.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing from report", name)
		return 0
	}

	// Two ephemeral runs: each report shows exactly one run.
	for i := 0; i < 2; i++ {
		r, err := e.Run(100, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := counter(r, "core_runs_total"); got != 1 {
			t.Fatalf("ephemeral run %d: core_runs_total = %d, want 1 (per-run report)", i, got)
		}
		if got := counter(r, "core_walkers_total"); got != 100 {
			t.Fatalf("ephemeral run %d: core_walkers_total = %d, want 100", i, got)
		}
	}

	// A held session accumulates across its own runs only.
	s, err := e.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	var last *Result
	for i := 0; i < 3; i++ {
		if last, err = s.Run(100, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(last, "core_runs_total"); got != 3 {
		t.Fatalf("held session: core_runs_total = %d, want 3 (session-lifetime report)", got)
	}
	s.Close()

	// The aggregate sees all five closed runs.
	agg := e.MetricsReport()
	if agg == nil {
		t.Fatal("MetricsReport returned nil on a metrics-enabled engine")
	}
	var aggRuns uint64
	for _, c := range agg.Counters {
		if c.Name == "core_runs_total" {
			aggRuns = c.Value
		}
	}
	if aggRuns != 5 {
		t.Fatalf("aggregate core_runs_total = %d, want 5", aggRuns)
	}
}

// TestConcurrentRunsWithMetrics stresses the per-session registries and
// the pool's per-submission accounting under -race: every concurrent run
// must still report its own exact counts.
func TestConcurrentRunsWithMetrics(t *testing.T) {
	g := undirectedTestGraph(t, 300, 13)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 4, Seed: 6, Metrics: true})
	defer e.Close()

	const sessions = 4
	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(200, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for _, c := range results[i].Report.Counters {
			switch c.Name {
			case "core_runs_total":
				if c.Value != 1 {
					t.Fatalf("run %d: core_runs_total = %d, want 1", i, c.Value)
				}
			case "core_walkers_total":
				if c.Value != 200 {
					t.Fatalf("run %d: core_walkers_total = %d, want 200", i, c.Value)
				}
			case "core_steps_total":
				if c.Value != 3 {
					t.Fatalf("run %d: core_steps_total = %d, want 3", i, c.Value)
				}
			}
		}
	}
	// The fold must conserve counts: 4 runs × 200 walkers × 3 steps.
	var walkers uint64
	for _, c := range e.MetricsReport().Counters {
		if c.Name == "core_walkers_total" {
			walkers = c.Value
		}
	}
	if walkers != sessions*200 {
		t.Fatalf("aggregate core_walkers_total = %d, want %d", walkers, sessions*200)
	}
}

// TestConcurrentSparseMixedWaves runs serving-sized mixed waves from
// several sessions on one engine at once, on a plan whose hubs
// pre-sample. A wave below the inline cutoff runs every phase on its own
// goroutine, outside the pool's serialized submissions, so only
// per-session state keeps concurrent waves apart; the larger waves mixed
// in take the pooled path beside them. Half the waves carry, beside
// their sparse cohorts, one cohort at or above the sparse switch, which
// binds the plan's PS kernels in the same sweep. Each goroutine holds
// one session across its waves, so every wave after the first runs on
// step state an earlier wave of another size grew. Every cohort must be
// bitwise-identical to its solo RunSeeded on an engine built for its
// spec. CI repeats it under the race detector.
func TestConcurrentSparseMixedWaves(t *testing.T) {
	defer func(old int) { walk.InlineCutoff = old }(walk.InlineCutoff)
	walk.InlineCutoff = 256

	g := undirectedTestGraph(t, 600, 3)
	cfg := psPlanConfig()
	cfg.Workers = 4
	cfg.RecordHistory = true
	specs := []algo.Spec{algo.DeepWalk(), algo.Node2Vec(2, 0.5), algo.PageRankWalk(0.85)}
	solos := map[string]*Engine{}
	for _, sp := range specs {
		solos[sp.Name] = newEngine(t, g, sp, cfg)
		defer solos[sp.Name].Close()
	}
	e := solos[specs[0].Name]
	ws := e.SparseSwitch()
	wave := func(i int) []Cohort {
		seed := uint64(100 + 4*i)
		small := uint64(1 + i%3)
		cohorts := []Cohort{
			{Spec: specs[0], Walkers: small, Steps: 6, Seed: seed},
			{Spec: specs[1], Walkers: small, Steps: 4, Seed: seed + 1},
			{Spec: specs[2], Walkers: 1 + small/2, Steps: 5, Seed: seed + 2},
		}
		if i%2 == 1 {
			// One plan-template cohort; every other one pushes the wave
			// above the inline cutoff, onto the pooled path.
			walkers := ws + uint64(i)
			if i%4 == 3 {
				walkers = ws + 100
			}
			cohorts = append(cohorts, Cohort{Spec: specs[i/2%3], Walkers: walkers, Steps: 3 + i%4, Seed: seed + 3})
		}
		return cohorts
	}

	const sessions, waves = 6, 4
	got := make([]*MixedResult, sessions*waves)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s, err := e.NewSession(context.Background())
			if err != nil {
				errs[si*waves] = err
				return
			}
			defer s.Close()
			for k := 0; k < waves; k++ {
				i := si*waves + k
				got[i], errs[i] = s.RunMixed(wave(i))
			}
		}(si)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("wave %d: %v", i, errs[i])
		}
		for c, co := range wave(i) {
			solo := seededRun(t, solos[co.Spec.Name], co.Seed, co.Walkers, co.Steps)
			if ps := psSteps(t, solo.Report); (ps > 0) != (co.Walkers >= ws) {
				t.Fatalf("wave %d cohort %d: %d walkers ran %d PS walker-steps (W* = %d)", i, c, co.Walkers, ps, ws)
			}
			if !historiesEqual(solo.History, got[i].Cohorts[c].History) {
				t.Fatalf("wave %d cohort %d diverged from its solo run", i, c)
			}
		}
	}
}

// TestCloseWaitsForActiveSessions checks that Engine.Close drains: a Walk
// in flight when Close is called completes normally instead of losing its
// pool workers mid-phase.
func TestCloseWaitsForActiveSessions(t *testing.T) {
	g := undirectedTestGraph(t, 400, 17)
	e := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 2})

	// Acquire the session before Close is anywhere in flight, so Close is
	// guaranteed to find an active session to wait on.
	s, err := e.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	var r *Result
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, runErr = s.Run(2000, 20)
		s.Close()
	}()
	e.Close() // must block until the run's session closes
	wg.Wait()
	if runErr != nil {
		t.Fatalf("run overlapping Close failed: %v", runErr)
	}
	if r.Walkers != 2000 {
		t.Fatalf("run overlapping Close advanced %d walkers, want 2000", r.Walkers)
	}
}
