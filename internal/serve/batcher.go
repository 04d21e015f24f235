package serve

import (
	"context"
	"errors"
	"time"

	"flashmob"
	"flashmob/internal/dyn"
	"flashmob/internal/obs"
	"flashmob/internal/rng"
)

// pending is one admitted walk query waiting for its batch: the
// normalized request plus the channel its outcome is delivered on.
type pending struct {
	b        *backend // the algorithm backend the request routed to
	walkers  int
	steps    int // resolved: never 0
	seed     uint64
	seeded   bool
	enq      time.Time
	deadline time.Time
	resp     chan outcome // capacity 1; exactly one outcome per pending
}

// outcome is what the executor (or the shedding path) delivers back to
// the waiting handler.
type outcome struct {
	status        int // http.StatusOK or the shed/failure code
	errMsg        string
	retry         bool // advertise Retry-After on the error
	steps         int
	batchRequests int
	runWalkers    int
	runCohorts    int
	paths         [][]flashmob.VID
	epoch         uint64 // snapshot the run sampled (dynamic groups only)
	execStart     time.Time
	runDur        time.Duration
}

// backend is one served algorithm: the route name, the spec that
// resolves default step counts, and the engine group that executes its
// requests. Backends sharing one built system share one engine group —
// and therefore one queue, one batching window, and one mixed engine run
// per wave.
type backend struct {
	name string
	sys  *flashmob.System
	spec flashmob.Algorithm
	g    *engineGroup
}

// engineGroup is one built system's batching pipeline: an admission
// queue shared by every backend routed to the system, a dispatcher that
// assembles cross-algorithm batches, and executors that run each batch
// as one mixed-cohort engine run.
type engineGroup struct {
	s        *Server
	sys      *flashmob.System
	backends []*backend
	// sharded, when non-nil, makes the group a shard coordinator: waves
	// execute across the topology's shard engines instead of on pooled
	// local sessions (Backend.Sharded).
	sharded *flashmob.ShardedSystem
	// dyn, when non-nil, makes the group dynamic: each wave pins the
	// current epoch snapshot for its run (walk-on-snapshot), so a wave is
	// never invalidated by a concurrent freeze or compaction and never
	// mixes epochs (sys is nil).
	dyn     *flashmob.DynamicSystem
	queue   chan *pending
	batches chan []*pending
	// free recycles batch slices between executors and the dispatcher so
	// the steady-state dispatch path allocates nothing per batch.
	free chan []*pending
}

// Enqueue errors, mapped to HTTP by the handler.
var (
	errOverloaded = errors.New("serve: admission queue full")
	errClosed     = errors.New("serve: server closed")
)

// enqueue admits p or reports why it cannot: a closed server or a full
// queue. The read lock pairs with Close's write lock so the queue is
// never closed between the check and the send.
func (b *backend) enqueue(p *pending) error {
	s := b.g.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errClosed
	}
	select {
	case b.g.queue <- p:
		s.m.requests.Inc()
		s.m.queueDepth.Add(1)
		return nil
	default:
		return errOverloaded
	}
}

// expiredAt reports whether p's deadline had passed at instant t. The
// instant is read once per dispatch or execution wave (Server.now), not
// once per pending request — deadline granularity is milliseconds, so a
// wave-grained clock sheds identically while keeping clock reads off the
// per-request path.
func (p *pending) expiredAt(t time.Time) bool { return t.After(p.deadline) }

// shed answers p with a load-shedding 503 and charges the given counter.
func (g *engineGroup) shed(p *pending, why string, counter *obs.Counter) {
	counter.Inc()
	p.resp <- outcome{status: 503, errMsg: why, retry: true}
}

// newBatch takes a recycled batch slice or allocates the first few.
func (g *engineGroup) newBatch(first *pending) []*pending {
	select {
	case b := <-g.free:
		return append(b, first)
	default:
		return append(make([]*pending, 0, 16), first)
	}
}

// recycle returns a drained batch slice to the dispatcher.
func (g *engineGroup) recycle(batch []*pending) {
	select {
	case g.free <- batch[:0]:
	default:
	}
}

// dispatch is the group's micro-batcher: it opens a batch on the first
// queued request — whatever algorithm it routed to — then collects more
// until the walker budget or request cap is hit, a request does not fit
// (it carries over to the next batch), or the max-wait window closes.
// Requests for different algorithms and step counts land in one batch;
// the executor runs them as cohorts of a single mixed engine run.
// Expired requests are shed at dequeue, before they can occupy batch
// budget. When the queue closes (server shutdown) the remaining admitted
// requests are still drained into final batches.
func (g *engineGroup) dispatch() {
	defer g.s.wg.Done()
	defer close(g.batches)
	cfg := &g.s.cfg
	var carry *pending
	for {
		first := carry
		carry = nil
		if first == nil {
			var ok bool
			first, ok = <-g.queue
			if !ok {
				return
			}
			g.s.m.queueDepth.Add(-1)
		}
		// One clock read covers the whole wave's deadline checks.
		now := g.s.now()
		if first.expiredAt(now) {
			g.shed(first, "deadline expired while queued", g.s.m.shedExpired)
			continue
		}
		batch := g.newBatch(first)
		walkers := first.walkers
		window := time.NewTimer(cfg.MaxWait)
	collect:
		for walkers < cfg.MaxBatchWalkers &&
			(cfg.MaxBatchRequests == 0 || len(batch) < cfg.MaxBatchRequests) {
			select {
			case p, ok := <-g.queue:
				if !ok {
					break collect
				}
				g.s.m.queueDepth.Add(-1)
				if p.expiredAt(now) {
					g.shed(p, "deadline expired while queued", g.s.m.shedExpired)
					continue
				}
				if walkers+p.walkers > cfg.MaxBatchWalkers {
					carry = p
					break collect
				}
				batch = append(batch, p)
				walkers += p.walkers
			case <-window.C:
				break collect
			}
		}
		window.Stop()
		g.s.m.batches.Inc()
		g.s.m.batchRequests.Observe(uint64(len(batch)))
		g.s.m.batchWalkers.Observe(uint64(walkers))
		g.batches <- batch
	}
}

// executor drains assembled batches and runs them; several run per
// group, each batch on a session from the group's pool. Each executor
// owns one waveScratch, so the batch→cohort assembly reuses its group
// and cohort storage across batches.
func (g *engineGroup) executor() {
	defer g.s.wg.Done()
	var ws waveScratch
	for batch := range g.batches {
		g.execute(&ws, batch)
		g.recycle(batch)
	}
}

// runGroup is one cohort's worth of a batch: requests answered from one
// contiguous segment of a mixed run's walker array.
type runGroup struct {
	b       *backend
	steps   int
	walkers int
	seed    uint64
	seeded  bool
	reqs    []*pending
}

// waveScratch is an executor's reusable batch-assembly state: the cohort
// groups and the cohort specs derived from them. Group entries keep
// their request-slice capacity across batches, so assembling a
// steady-state wave allocates nothing (batcher_test.go pins this).
type waveScratch struct {
	groups  []runGroup
	cohorts []flashmob.CohortSpec
}

// reset empties the scratch, retaining every group's reqs capacity.
func (ws *waveScratch) reset() {
	ws.groups = ws.groups[:0]
	ws.cohorts = ws.cohorts[:0]
}

// addGroup appends a cohort group, reusing a previously grown entry's
// storage when one is available.
func (ws *waveScratch) addGroup(b *backend, steps int, seed uint64, seeded bool, p *pending) {
	if len(ws.groups) < cap(ws.groups) {
		ws.groups = ws.groups[:len(ws.groups)+1]
	} else {
		ws.groups = append(ws.groups, runGroup{})
	}
	grp := &ws.groups[len(ws.groups)-1]
	grp.b, grp.steps, grp.walkers, grp.seed, grp.seeded = b, steps, p.walkers, seed, seeded
	grp.reqs = append(grp.reqs[:0], p)
}

// assemble splits a batch into cohort groups: each seeded request gets a
// private cohort (so its trajectories cannot depend on its neighbors);
// unseeded requests coalesce per (algorithm, steps) into one shared
// per-wave-seeded cohort. Linear scans replace the per-batch map the
// grouping used to allocate — waves hold a handful of distinct
// (algorithm, steps) pairs.
func (ws *waveScratch) assemble(s *Server, live []*pending) {
	ws.reset()
	for _, p := range live {
		if p.seeded {
			ws.addGroup(p.b, p.steps, p.seed, true, p)
			continue
		}
		found := false
		for i := range ws.groups {
			grp := &ws.groups[i]
			if !grp.seeded && grp.b == p.b && grp.steps == p.steps {
				grp.reqs = append(grp.reqs, p)
				grp.walkers += p.walkers
				found = true
				break
			}
		}
		if !found {
			ws.addGroup(p.b, p.steps, rng.Mix64(s.cfg.Seed^rng.Mix64(s.runSeq.Add(1))), false, p)
		}
	}
	for i := range ws.groups {
		grp := &ws.groups[i]
		ws.cohorts = append(ws.cohorts, flashmob.CohortSpec{
			Algorithm: grp.b.spec,
			Walkers:   uint64(grp.walkers),
			Steps:     grp.steps,
			Seed:      grp.seed,
		})
	}
}

// execute runs one batch: expired requests are shed now (the second and
// last deadline checkpoint), the rest assemble into cohort groups, and
// the whole wave executes as one mixed engine run — every algorithm and
// step count in the batch sharing one partition sweep — whose walker
// array is demuxed per cohort, per request.
func (g *engineGroup) execute(ws *waveScratch, batch []*pending) {
	// One clock read covers the wave's shed filter and its queue-latency
	// accounting (outcome.execStart).
	execStart := g.s.now()
	live := batch[:0]
	for _, p := range batch {
		if p.expiredAt(execStart) {
			g.shed(p, "deadline expired before execution", g.s.m.shedExpired)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	ws.assemble(g.s, live)

	t0 := time.Now()
	res, epoch, err := g.walkMixed(ws.cohorts)
	runDur := time.Since(t0)
	g.s.m.runNS.Observe(uint64(runDur))
	g.s.m.runCohorts.Observe(uint64(len(ws.groups)))
	if err != nil {
		g.fail(ws.groups, err)
		return
	}
	for i := range ws.groups {
		grp := &ws.groups[i]
		paths, perr := res.Paths(i)
		if perr != nil {
			g.failGroup(grp, perr)
			continue
		}
		g.deliver(len(live), len(ws.groups), execStart, runDur, epoch, grp, paths)
	}
}

// walkMixed performs the wave's engine run. A local wave runs on a
// session of the system's own: closing it drains the wave's engine
// metrics into the system aggregate GET /metrics reports, and parks it,
// step state included, on the engine's idle list for the next wave.
// Reuse does not cost reproducibility: a mixed run rebinds every cohort
// slot from its spec and walker count — kernel template, PS buffers,
// cursors — before the first step, so each cohort's trajectories depend
// only on (build, algorithm, seed, walkers, steps), exactly as on a
// fresh session.
func (g *engineGroup) walkMixed(cohorts []flashmob.CohortSpec) (*flashmob.MixedResult, uint64, error) {
	if g.dyn != nil {
		// Dynamic mode: pin the current epoch for the whole wave. The
		// snapshot keeps its engine build alive however many freezes or
		// compactions land while the run executes; the epoch ID rides the
		// responses so clients can correlate walks with ingests.
		snap, err := g.dyn.Snapshot()
		if err != nil {
			return nil, 0, err
		}
		defer snap.Release()
		res, err := snap.WalkMixed(cohorts)
		if err != nil {
			return nil, 0, err
		}
		return res, snap.Epoch(), nil
	}
	if g.sharded != nil {
		// Coordinator mode: the wave runs across the shard engines. The
		// sharded run is bitwise-identical to a local session run, so
		// everything downstream — per-cohort Paths, per-request demux —
		// is unchanged.
		res, err := g.sharded.WalkMixed(context.Background(), cohorts)
		return res, 0, err
	}
	res, err := g.sys.WalkMixed(cohorts)
	return res, 0, err
}

// fail answers every request of every group with the mapped engine
// error.
func (g *engineGroup) fail(groups []runGroup, err error) {
	for i := range groups {
		g.failGroup(&groups[i], err)
	}
}

// failGroup answers one group's requests with the mapped engine error:
// ErrClosed becomes the shutdown 503, anything else a 500.
func (g *engineGroup) failGroup(grp *runGroup, err error) {
	status, msg := 500, err.Error()
	if errors.Is(err, flashmob.ErrClosed) || errors.Is(err, dyn.ErrClosed) {
		status, msg = 503, "server closed"
		g.s.m.shedClosed.Add(uint64(len(grp.reqs)))
	} else {
		g.s.m.failed.Add(uint64(len(grp.reqs)))
	}
	for _, p := range grp.reqs {
		p.resp <- outcome{status: status, errMsg: msg}
	}
}

// deliver demuxes one cohort's trajectories to its requests: each
// request's walkers are a contiguous slice of the cohort's walker array,
// in enqueue order.
func (g *engineGroup) deliver(batchRequests, runCohorts int, execStart time.Time, runDur time.Duration, epoch uint64, grp *runGroup, paths [][]flashmob.VID) {
	off := 0
	for _, p := range grp.reqs {
		p.resp <- outcome{
			status:        200,
			steps:         grp.steps,
			batchRequests: batchRequests,
			runWalkers:    grp.walkers,
			runCohorts:    runCohorts,
			paths:         paths[off : off+p.walkers],
			epoch:         epoch,
			execStart:     execStart,
			runDur:        runDur,
		}
		off += p.walkers
	}
}
