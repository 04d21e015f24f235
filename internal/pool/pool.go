// Package pool provides a persistent worker pool with phase barriers.
//
// FlashMob's pipeline alternates between stages (count, scatter, sample,
// gather) millions of times per run; spawning a fresh wave of goroutines
// for every stage of every step costs both the spawn itself and the loss
// of the scheduler's thread affinity. A Pool instead parks one goroutine
// per worker for the lifetime of the engine and replays them through
// Task phases: a phase barrier costs two channel operations per worker
// and allocates nothing in steady state.
//
// Submit is the phase-submission path shared by concurrent sessions: any
// number of goroutines may Submit phases and the pool multiplexes them,
// running one phase at a time across the full worker set. Each
// submission carries its own observability hooks — an obs.PoolMetrics
// (per-worker busy time, barrier wait, run count) and a pprof label
// context applied to the workers for the duration of the phase — so
// concurrent sessions account their pool time separately. Either may be
// nil and costs one nil check per phase when off. Inline runs a phase
// too small to be worth a handoff on the caller alone, with the same run
// count and labels and without touching the pool; its busy time is the
// caller's to charge.
package pool

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"flashmob/internal/obs"
)

// Task is a unit of phased parallel work. RunShard executes one phase's
// shard on one worker; implementations split their data by (worker,
// workers) — contiguous ranges, strided bins, or a shared atomic counter.
type Task interface {
	RunShard(phase, worker, workers int)
}

// Pool is the owner handle of a persistent worker set. The worker
// goroutines reference only the inner state, so dropping the last handle
// makes the pool collectable and a finalizer releases the parked workers;
// call Close to release them deterministically.
type Pool struct {
	*pool
}

type pool struct {
	workers int
	start   []chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// mu serializes Submit's multi-worker path: concurrent submitters
	// each get the whole worker set for one phase at a time, so the
	// in-flight fields below are owned by exactly one submission.
	mu    sync.Mutex
	task  Task
	phase int
	ctx   context.Context  // pprof label context for the current phase (nil: none)
	curM  *obs.PoolMetrics // the current submission's accounting (nil: none)
}

// New builds a pool of the given size (≤ 0 means 1). Worker 0 is the
// caller's own slot: a pool of n spawns n-1 goroutines, so a size-1 pool
// is free and runs everything inline.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	in := &pool{workers: workers}
	in.start = make([]chan struct{}, workers-1)
	for i := range in.start {
		in.start[i] = make(chan struct{}, 1)
		go in.work(i+1, in.start[i])
	}
	h := &Pool{in}
	runtime.SetFinalizer(h, func(h *Pool) { h.pool.close() })
	return h
}

func (p *pool) work(worker int, start <-chan struct{}) {
	for range start {
		ctx := p.ctx
		if ctx != nil {
			pprof.SetGoroutineLabels(ctx)
		}
		if m := p.curM; m != nil {
			t0 := time.Now()
			p.task.RunShard(p.phase, worker, p.workers)
			m.BusyNS.Add(worker, uint64(time.Since(t0)))
		} else {
			p.task.RunShard(p.phase, worker, p.workers)
		}
		if ctx != nil {
			// A parked worker must not carry this phase's labels (or any
			// the task set per item) into a later unlabelled phase.
			pprof.SetGoroutineLabels(context.Background())
		}
		p.wg.Done()
	}
}

// Workers returns the pool size, including the caller's slot 0.
func (p *pool) Workers() int { return p.workers }

// Submit executes one phase of t across the full worker set and returns
// when all shards have finished — the phase barrier shared by concurrent
// sessions. Submissions from different goroutines are serialized: each
// phase gets every worker, so multiplexing N sessions interleaves their
// phases rather than splitting the workers. The submitting goroutine
// runs shard 0 itself; m (which must be sized for Workers slots) and ctx
// attach this submission's accounting and pprof labels, either may be
// nil. Steady-state calls perform no allocations and create no
// goroutines.
func (p *pool) Submit(t Task, phase int, ctx context.Context, m *obs.PoolMetrics) {
	if p.workers == 1 {
		Inline(t, phase, ctx, m)
		return
	}
	p.mu.Lock()
	p.task, p.phase, p.ctx, p.curM = t, phase, ctx, m
	p.wg.Add(p.workers - 1)
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
	if m != nil {
		t0 := time.Now()
		t.RunShard(phase, 0, p.workers)
		done := time.Now()
		m.BusyNS.Add(0, uint64(done.Sub(t0)))
		p.wg.Wait()
		m.BarrierWaitNS.Add(uint64(time.Since(done)))
		m.Runs.Inc()
	} else {
		t.RunShard(phase, 0, p.workers)
		p.wg.Wait()
	}
	if ctx != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
	p.task, p.ctx, p.curM = nil, nil, nil
	p.mu.Unlock()
}

// Inline executes one phase of t as a single shard on the calling
// goroutine — the one-worker form of Submit, which a pool of size 1 runs
// for every phase. Callers whose phase is too small to pay for a handoff
// to the workers use it directly: it touches no pool state, so inline
// phases from concurrent sessions neither serialize on the pool nor
// wait at its barrier. m (if non-nil) counts one run, and ctx's labels
// (if non-nil) cover the shard and are reset to none afterwards. Inline
// reads no clock: a phase this small is a few hundred nanoseconds, so
// the caller, which times its whole step anyway, charges slot 0's busy
// time once per step instead of per phase.
func Inline(t Task, phase int, ctx context.Context, m *obs.PoolMetrics) {
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
	t.RunShard(phase, 0, 1)
	if m != nil {
		m.Runs.Inc()
	}
	if ctx != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// Close releases the worker goroutines. It is idempotent; nothing may be
// submitted to the pool afterwards.
func (p *Pool) Close() {
	runtime.SetFinalizer(p, nil)
	p.pool.close()
}

func (p *pool) close() {
	p.once.Do(func() {
		for _, ch := range p.start {
			close(ch)
		}
	})
}
