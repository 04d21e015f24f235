package pool

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flashmob/internal/obs"
)

// sumTask adds worker indices into per-worker cells, tagged by phase.
type sumTask struct {
	cells [][8]uint64 // padded to avoid false sharing in the test itself
}

func (t *sumTask) RunShard(phase, worker, workers int) {
	t.cells[worker][0] += uint64(phase*workers + worker)
}

func TestRunCoversAllWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		p := New(n)
		task := &sumTask{cells: make([][8]uint64, n)}
		const phases = 50
		for ph := 0; ph < phases; ph++ {
			p.Submit(task, ph, nil, nil)
		}
		for wk := 0; wk < n; wk++ {
			var want uint64
			for ph := 0; ph < phases; ph++ {
				want += uint64(ph*n + wk)
			}
			if task.cells[wk][0] != want {
				t.Fatalf("n=%d worker %d accumulated %d, want %d", n, wk, task.cells[wk][0], want)
			}
		}
		p.Close()
	}
}

func TestRunIsABarrier(t *testing.T) {
	p := New(4)
	defer p.Close()
	var inFlight, maxSeen atomic.Int64
	task := taskFunc(func(phase, worker, workers int) {
		cur := inFlight.Add(1)
		for {
			old := maxSeen.Load()
			if cur <= old || maxSeen.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	for ph := 0; ph < 10; ph++ {
		p.Submit(task, ph, nil, nil)
		if got := inFlight.Load(); got != 0 {
			t.Fatalf("phase %d returned with %d shards in flight", ph, got)
		}
	}
	if maxSeen.Load() != 4 {
		t.Fatalf("peak concurrency %d, want 4", maxSeen.Load())
	}
}

type taskFunc func(phase, worker, workers int)

func (f taskFunc) RunShard(phase, worker, workers int) { f(phase, worker, workers) }

func TestRunAllocatesNothingAndSpawnsNothing(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &sumTask{cells: make([][8]uint64, 4)}
	p.Submit(task, 0, nil, nil) // warm up
	before := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(100, func() { p.Submit(task, 1, nil, nil) })
	if allocs != 0 {
		t.Errorf("Submit allocated %.1f objects per call, want 0", allocs)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutine count changed %d → %d across Submits", before, after)
	}
}

func TestCloseReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(6)
	task := &sumTask{cells: make([][8]uint64, 6)}
	p.Submit(task, 0, nil, nil)
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines alive after Close, started with %d", got, base)
	}
}

func TestZeroAndNegativeSize(t *testing.T) {
	for _, n := range []int{0, -3} {
		p := New(n)
		if p.Workers() != 1 {
			t.Fatalf("New(%d).Workers() = %d, want 1", n, p.Workers())
		}
		task := &sumTask{cells: make([][8]uint64, 1)}
		p.Submit(task, 2, nil, nil)
		if task.cells[0][0] != 2 {
			t.Fatalf("inline run missing: %d", task.cells[0][0])
		}
		p.Close()
	}
}

// TestParkedWorkersDropPhaseLabels checks that a labelled phase's pprof
// labels do not outlive it: after a labelled Submit and an unlabelled
// one, no parked worker goroutine may still carry the first phase's
// labels, or a profile would charge later unlabelled work (another
// session's, say) to the labelled stage.
func TestParkedWorkersDropPhaseLabels(t *testing.T) {
	p := New(2)
	defer p.Close()
	task := &sumTask{cells: make([][8]uint64, 2)}
	labelled := pprof.WithLabels(context.Background(), pprof.Labels("stage", "probe"))
	p.Submit(task, 0, labelled, nil)
	p.Submit(task, 0, nil, nil)

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "pool.(*pool).work") {
			continue
		}
		found = true
		if strings.Contains(rec, `"stage":"probe"`) {
			t.Fatalf("parked worker still carries the labelled phase's labels:\n%s", rec)
		}
	}
	if !found {
		t.Fatal("goroutine profile shows no pool worker")
	}
}

// TestInlineAccountsLikeSubmit pins Inline's accounting to the pooled
// path's: one run per phase, no barrier wait, on the calling goroutine
// as worker 0 of 1. Inline reads no clock, so it charges no busy time
// to any slot: its caller charges slot 0 for its whole step.
func TestInlineAccountsLikeSubmit(t *testing.T) {
	m := obs.NewPoolMetrics(obs.NewRegistry(), 4)
	task := &sumTask{cells: make([][8]uint64, 1)}
	labelled := pprof.WithLabels(context.Background(), pprof.Labels("stage", "probe"))
	probe := taskFunc(func(phase, worker, workers int) {
		if worker != 0 || workers != 1 {
			t.Errorf("inline shard ran as worker %d of %d, want 0 of 1", worker, workers)
		}
		task.RunShard(phase, worker, workers)
	})
	Inline(probe, 3, labelled, m)
	Inline(probe, 4, nil, m)
	if task.cells[0][0] != 7 {
		t.Fatalf("inline shards accumulated %d, want 7", task.cells[0][0])
	}
	if got := m.Runs.Value(); got != 2 {
		t.Errorf("runs = %d, want 2", got)
	}
	if got := m.BarrierWaitNS.Value(); got != 0 {
		t.Errorf("barrier wait = %d, want 0 for inline phases", got)
	}
	for slot := 0; slot < 4; slot++ {
		if got := m.BusyNS.Value(slot); got != 0 {
			t.Errorf("busy time on slot %d = %d, want 0", slot, got)
		}
	}
}
