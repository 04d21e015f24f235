package flashmob

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentWalksOnOneSystem is the public concurrency stress test:
// many goroutines Walk one System (run under -race in CI), and every
// concurrent result must be bitwise-identical to the serial run with the
// same parameters.
func TestConcurrentWalksOnOneSystem(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 7, RecordPaths: true, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	serial, err := sys.Walk(1000, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Paths()
	if err != nil {
		t.Fatal(err)
	}

	const walks = 6
	results := make([]*Result, walks)
	errs := make([]error, walks)
	var wg sync.WaitGroup
	for i := 0; i < walks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sys.Walk(1000, 6)
		}(i)
	}
	wg.Wait()

	for i := 0; i < walks; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent walk %d: %v", i, errs[i])
		}
		got, err := results[i].Paths()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("walk %d: %d paths, want %d", i, len(got), len(want))
		}
		for j := range want {
			for k := range want[j] {
				if got[j][k] != want[j][k] {
					t.Fatalf("walk %d diverged from serial at path %d step %d", i, j, k)
				}
			}
		}
	}
}

// TestWalkAfterClose locks the closed-System contract: Walk and
// NewSession return ErrClosed instead of hanging on released workers.
func TestWalkAfterClose(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 3, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Walk(100, 2); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // idempotent

	if _, err := sys.Walk(100, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Walk after Close: got %v, want ErrClosed", err)
	}
	if _, err := sys.NewSession(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession after Close: got %v, want ErrClosed", err)
	}
}

// TestSessionLifecycle exercises the explicit session handle: repeated
// Walks on one session, seeded walks on a held session, context
// cancellation, and idempotent Close.
func TestSessionLifecycle(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 5, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	s, err := sys.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := s.Walk(500, 3)
		if err != nil {
			t.Fatal(err)
		}
		if r.Walkers() != 500 {
			t.Fatalf("session walk advanced %d walkers, want 500", r.Walkers())
		}
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Walk(500, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("Walk on closed session: got %v, want ErrClosed", err)
	}

	// Seeded walks on a held session are pure functions of their
	// arguments: two in a row equal the same walks on fresh sessions.
	rec, err := New(g, Options{Seed: 5, TargetGroups: 16, RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	seededPaths := func(s *Session, seed uint64, walkers uint64) [][]VID {
		r, err := s.WalkSeeded(seed, walkers, 4)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := r.Paths()
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	held, err := rec.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, run := range []struct{ seed, walkers uint64 }{{3, 400}, {9, 30}} {
		got := seededPaths(held, run.seed, run.walkers)
		fresh, err := rec.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := seededPaths(fresh, run.seed, run.walkers)
		fresh.Close()
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("WalkSeeded(%d, %d) on a held session differs from a fresh session's", run.seed, run.walkers)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cs, err := sys.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cancel()
	if _, err := cs.Walk(500, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Walk on canceled session: got %v, want context.Canceled", err)
	}
}

// TestConcurrentWalkReportsArePerRun checks the public Report semantics
// under concurrency: each Walk's report describes that walk alone.
func TestConcurrentWalkReportsArePerRun(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 9, TargetGroups: 16, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const walks = 4
	results := make([]*Result, walks)
	errs := make([]error, walks)
	var wg sync.WaitGroup
	for i := 0; i < walks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sys.Walk(300, 4)
		}(i)
	}
	wg.Wait()
	for i := 0; i < walks; i++ {
		if errs[i] != nil {
			t.Fatalf("walk %d: %v", i, errs[i])
		}
		rep := results[i].Report()
		if rep == nil {
			t.Fatalf("walk %d: nil report on a metrics-enabled System", i)
		}
		for _, c := range rep.Counters {
			switch c.Name {
			case "core_runs_total":
				if c.Value != 1 {
					t.Fatalf("walk %d: core_runs_total = %d, want 1", i, c.Value)
				}
			case "core_walkers_total":
				if c.Value != 300 {
					t.Fatalf("walk %d: core_walkers_total = %d, want 300", i, c.Value)
				}
			}
		}
	}
}
