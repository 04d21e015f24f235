package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock standing in for Server.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestAssembleAllocatesNothing pins the steady-state cost of batch
// assembly: once a waveScratch has warmed to a wave's shape, splitting a
// batch into cohort groups allocates nothing — no per-batch map, no
// fresh runGroup structs, no regrown request slices (the pooled
// equivalent of the engine's own zero-alloc step loop).
func TestAssembleAllocatesNothing(t *testing.T) {
	s := &Server{cfg: Config{Seed: 7}.withDefaults()}
	b1 := &backend{name: "deepwalk"}
	b2 := &backend{name: "node2vec"}
	now := time.Now()
	mk := func(b *backend, walkers, steps int, seed uint64, seeded bool) *pending {
		return &pending{b: b, walkers: walkers, steps: steps, seed: seed, seeded: seeded,
			enq: now, deadline: now.Add(time.Hour)}
	}
	// A representative wave: two coalescible unseeded groups across two
	// algorithms and step counts, plus two private seeded cohorts.
	live := []*pending{
		mk(b1, 8, 5, 0, false),
		mk(b2, 32, 5, 0, false),
		mk(b1, 16, 5, 0, false),
		mk(b1, 4, 9, 11, true),
		mk(b2, 128, 5, 0, false),
		mk(b2, 2, 5, 22, true),
	}
	var ws waveScratch
	ws.assemble(s, live) // warm up group and cohort storage
	if len(ws.groups) != 4 {
		t.Fatalf("assembled %d groups, want 4 (two coalesced + two seeded)", len(ws.groups))
	}
	allocs := testing.AllocsPerRun(100, func() { ws.assemble(s, live) })
	if allocs != 0 {
		t.Errorf("assemble allocated %.1f objects per batch, want 0", allocs)
	}

	// The grouping itself must be right: unseeded same-(backend, steps)
	// requests share a cohort, seeded ones never do.
	var coalesced *runGroup
	for i := range ws.groups {
		g := &ws.groups[i]
		if g.b == b1 && !g.seeded {
			coalesced = g
		}
		if g.seeded && len(g.reqs) != 1 {
			t.Errorf("seeded group holds %d requests, want 1", len(g.reqs))
		}
	}
	if coalesced == nil || len(coalesced.reqs) != 2 || coalesced.walkers != 8+16 {
		t.Fatalf("deepwalk unseeded group misassembled: %+v", coalesced)
	}
}

// TestShedAndLatencyFakeClock pins the deadline and latency accounting
// to the server's injectable clock: the dispatcher and the executor each
// read it once per wave, shed against that instant, and stamp it as the
// wave's execution start — so what lands in the shed counters and the
// queue-latency math is fully determined by the clock, not by wall time
// leaking in per request.
func TestShedAndLatencyFakeClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	sys, spec := testSystem(t)
	defer sys.Close()
	s := &Server{cfg: Config{MaxWait: time.Millisecond}.withDefaults(), m: newServeMetrics(), now: clk.Now}
	g := &engineGroup{
		s:       s,
		sys:     sys,
		queue:   make(chan *pending, 8),
		batches: make(chan []*pending, 8),
		free:    make(chan []*pending, 2),
	}
	b := &backend{name: "deepwalk", sys: sys, spec: spec, g: g}
	mk := func(timeout time.Duration) *pending {
		now := clk.Now()
		return &pending{b: b, walkers: 2, steps: 3, enq: now,
			deadline: now.Add(timeout), resp: make(chan outcome, 1)}
	}

	// Dispatcher-level shedding: a request whose deadline has already
	// passed on the fake clock is shed at dequeue, before it can occupy
	// batch budget.
	s.wg.Add(1)
	go g.dispatch()
	dead := mk(-time.Second)
	s.m.queueDepth.Add(1)
	g.queue <- dead
	if out := <-dead.resp; out.status != 503 || !out.retry {
		t.Fatalf("expired-in-queue outcome = %+v, want retryable 503", out)
	}
	if got := s.m.shedExpired.Value(); got != 1 {
		t.Fatalf("shedExpired = %d after queue shed, want 1", got)
	}

	// A live request forms a batch; advancing the clock past its deadline
	// before execution sheds it at the executor's single wave-clock read.
	lateShed := mk(time.Minute)
	s.m.queueDepth.Add(1)
	g.queue <- lateShed
	batch := <-g.batches
	if len(batch) != 1 {
		t.Fatalf("batch carries %d requests, want 1", len(batch))
	}
	clk.Advance(2 * time.Minute)
	var ws waveScratch
	g.execute(&ws, batch)
	if out := <-lateShed.resp; out.status != 503 {
		t.Fatalf("expired-before-execution outcome = %+v, want 503", out)
	}
	if got := s.m.shedExpired.Value(); got != 2 {
		t.Fatalf("shedExpired = %d after execute shed, want 2", got)
	}

	// A request that survives to execution gets the wave's clock read as
	// its execStart: queue latency is exactly the fake queueing delay.
	served := mk(time.Hour)
	queued := 3 * time.Second
	clk.Advance(queued)
	g.execute(&ws, []*pending{served})
	out := <-served.resp
	if out.status != 200 {
		t.Fatalf("served outcome = %+v, want 200", out)
	}
	if !out.execStart.Equal(served.enq.Add(queued)) {
		t.Fatalf("execStart %v is not the wave's clock read", out.execStart)
	}
	if got := out.execStart.Sub(served.enq); got != queued {
		t.Fatalf("queue latency accounted %v, want %v", got, queued)
	}

	close(g.queue)
	s.wg.Wait()
	if got := s.m.queueDepth.Value(); got != 0 {
		t.Fatalf("queueDepth = %d after drain, want 0", got)
	}
}
