package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/pool"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// StageTimes is a run's wall time split by pipeline stage (the split the
// paper shows in Figure 9a). Result and MixedResult embed it.
type StageTimes struct {
	// Duration is total wall time; SampleTime and ShuffleTime are the
	// stage splits, OtherTime the remainder (init, output).
	Duration, SampleTime, ShuffleTime, OtherTime time.Duration
	// ShuffleFwdTime and ShuffleRevTime split ShuffleTime into the forward
	// scatter and the reverse gather pass.
	ShuffleFwdTime, ShuffleRevTime time.Duration
}

// finish closes the split for a run that began at start: Duration is the
// wall time since, ShuffleTime the two passes, OtherTime the rest.
func (t *StageTimes) finish(start time.Time) {
	t.Duration = time.Since(start)
	t.ShuffleTime = t.ShuffleFwdTime + t.ShuffleRevTime
	t.OtherTime = t.Duration - t.SampleTime - t.ShuffleTime
}

// Result reports a run's outcome and stage timing breakdown.
type Result struct {
	// Walkers is the total number of walkers advanced.
	Walkers uint64
	// Steps is the walk length used.
	Steps int
	// TotalSteps is Walkers × Steps.
	TotalSteps uint64
	// Episodes is how many memory-budgeted rounds the run took.
	Episodes int
	// StageTimes is the run's wall time split by pipeline stage.
	StageTimes
	// History holds the recorded W_i arrays of the last episode when
	// Config.RecordHistory is set.
	History *walk.History
	// VPSteps[i] counts walker-steps sampled in partition i, for the
	// Figure 10b walker-step weighting.
	VPSteps []uint64
	// Report is the observability snapshot of the session that executed
	// the run (nil unless Config.Metrics): it describes this run alone —
	// or, on an explicitly held Session, everything that session ran so
	// far. The engine-lifetime aggregate across all closed sessions is
	// Engine.MetricsReport. See docs/OBSERVABILITY.md for the metric
	// reference.
	Report *obs.Report
}

// PerStepNS returns the headline metric: average wall nanoseconds per
// walker-step.
func (r *Result) PerStepNS() float64 {
	if r.TotalSteps == 0 {
		return 0
	}
	return float64(r.Duration.Nanoseconds()) / float64(r.TotalSteps)
}

// Run advances totalWalkers walkers (0 means |V|) for the given number of
// steps (0 means the spec's default), splitting into episodes under the
// memory budget. Safe for concurrent callers: each call runs on its own
// session off the engine's session pool, and concurrent runs with the
// same parameters produce bitwise-identical trajectories to serial ones.
func (e *Engine) Run(totalWalkers uint64, steps int) (*Result, error) {
	s, err := e.NewSession(context.Background())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(totalWalkers, steps)
}

// Run advances totalWalkers walkers (0 means |V|) for the given number of
// steps (0 means the spec's default), splitting into episodes under the
// memory budget. One Run at a time per session; the session's context
// cancels between pipeline steps, returning the context's error.
func (s *Session) Run(totalWalkers uint64, steps int) (*Result, error) {
	return s.RunSeeded(s.e.cfg.Seed, totalWalkers, steps)
}

// RunSeeded is Run with a per-run seed overriding Config.Seed: walker
// placement and every sample draw derive from the given seed instead of
// the engine's. Trajectories are a pure function of (engine build, seed,
// totalWalkers, steps) on any session, whatever it ran before — the hook
// the serving layer uses to give independently seeded requests
// reproducible walks on one shared engine.
//
// The run binds cohort slot 0 once, to the kernel template its first
// (largest) episode selects (EpisodeWalkers(totalWalkers) against the
// build's sparse switch, the rule every driver applies): at or above the
// switch the plan's template with PS buffers reset to empty, below it
// the sparse template, which direct-samples every partition and touches
// no PS buffer. A ragged last episode keeps that template, and PS
// buffers carry from episode to episode. It is then an episode loop over
// the session's run driver, one cohort per memory-resident episode, with
// the episode index in both the start placement and the sample-seed
// schedule; History holds the last episode. A recording run allocates
// one history buffer per call, sized by its first (largest) episode, and
// records every episode into it, so History aliases that buffer; a
// later call never reuses it. Once the session's step state
// has grown to the run's size, the steps allocate nothing and create no
// goroutines.
func (s *Session) RunSeeded(seed uint64, totalWalkers uint64, steps int) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	e := s.e
	if s.ov != nil {
		if err := checkOverlaySpec(&e.spec); err != nil {
			return nil, err
		}
	}
	if totalWalkers == 0 {
		totalWalkers = uint64(e.g.NumVertices())
	}
	if steps == 0 {
		steps = e.spec.Steps
	}
	if steps < 0 {
		return nil, fmt.Errorf("core: negative step count")
	}
	res := &Result{Steps: steps}
	start := time.Now()
	first := e.EpisodeWalkers(totalWalkers)
	s.cohortSlots(1)[0].bind(s, &e.spec, first, seed)
	var hbuf []graph.VID
	if e.cfg.RecordHistory && first < totalWalkers {
		hbuf = make([]graph.VID, first*uint64(steps+1))
	}
	for remaining := totalWalkers; remaining > 0; {
		ep := e.EpisodeWalkers(remaining)
		// Mix the episode index into the init seed so episodes decorrelate
		// (identical per-episode seeds would replay the same start
		// placement and walk randomness every round).
		hist, err := s.drive([]Cohort{{Walkers: ep, Steps: steps}}, res.Episodes, hbuf)
		if err != nil {
			return nil, err
		}
		res.History = hist[0]
		remaining -= ep
		res.Episodes++
		res.Walkers += ep
	}
	res.TotalSteps = res.Walkers * uint64(steps)
	res.StageTimes, res.VPSteps, res.Report = s.finish(start, res.Walkers)
	return res, nil
}

// sampleItem is one unit of sample-stage work: a partition's whole walker
// chunk or, for oversized direct-sampling chunks, one sub-shard of it.
// Each item carries its own RNG seed, derived from (engine seed, episode,
// step, partition, sub-shard) — never from the claiming worker or the
// session — so walker trajectories are a pure function of the engine
// seed, independent of worker count, of the order workers claim items,
// and of whether other sessions run concurrently.
type sampleItem struct {
	vp     int32
	lo, hi uint64
	seed   uint64
	// cx is the sampling context of the cohort owning the item's walkers
	// (slot 0 for a solo run) — which is how one sample stage interleaves
	// work items of different walk specs.
	cx *cohortCtx
}

// SubShardSize is the walker-count granularity for splitting oversized
// direct-sampling chunks: chunks of at least twice this size are cut into
// SubShardSize pieces (the ragged tail absorbed into the last piece) so
// one giant DS tail partition cannot serialize the stage behind a single
// worker. A var so tests, in this package and others, can shrink it to
// force sub-sharding on small inputs.
var SubShardSize = uint64(1) << 16

// subShardEnd returns the end of the sub-shard that starts at a in a
// splittable chunk ending at hi. Pieces are SubShardSize walkers, and the
// ragged tail is absorbed into the last piece, so a chunk shorter than
// twice SubShardSize is one piece. Cutting from a chunk's start with
// sub = 0, 1, … gives the (partition, sub-shard) coordinates of the item
// seeds (sampleSeedAt).
func subShardEnd(a, hi uint64) uint64 {
	b := a + SubShardSize
	if b >= hi || hi-b < SubShardSize {
		return hi // absorb the ragged tail into the last piece
	}
	return b
}

// sampleSeedPrefix and sampleSeedAt derive one work item's RNG seed.
// Chained Mix64 rounds avalanche every coordinate, so distinct (episode,
// step, partition, sub-shard) tuples get independent streams. The (seed,
// episode, step) coordinates are constant across one step's whole item
// list, so the item builder folds them once with sampleSeedPrefix and
// finishes each item with sampleSeedAt.
func sampleSeedPrefix(seed uint64, episode, step int) uint64 {
	h := rng.Mix64(seed ^ 0x5b8315f3a2ca3357)
	h = rng.Mix64(h + uint64(episode))
	return rng.Mix64(h + uint64(step))
}

// sampleSeedAt finishes the seed chain for one (partition, sub-shard)
// item.
func sampleSeedAt(prefix uint64, vp, sub int) uint64 {
	return rng.Mix64(rng.Mix64(prefix+uint64(vp)) + uint64(sub))
}

// sampleTask is the sample stage's pool task: workers pull work items
// from a shared counter (a one-shard phase takes them all); each item's
// walker range is private to the worker that claims it, so the stage
// needs no locks (§4.3). The task
// struct (and its item list) lives in the Session and is re-armed per
// step, keeping the step loop allocation-free once warm.
type sampleTask struct {
	s     *Session
	m     *engineMetrics // the session's metric set (nil unless Config.Metrics)
	next  atomic.Int64
	items []sampleItem
	sw    []graph.VID
	auxSW [][]graph.VID
	// cxs, prefixes and lay are the step's active cohorts (see run).
	cxs      []*cohortCtx
	prefixes []uint64
	lay      *cohortLayout
	// block is the edge block the armed group's DS kernels read, and
	// base the edge index of its first entry: the graph's Targets and 0
	// in memory, a loaded block on a streamed engine.
	block []graph.VID
	base  uint64
	// nItems and subShards count the step's items across its groups.
	nItems, subShards int
}

// itemClaim is how many work items one shared-counter claim covers:
// sparse runs (serving waves) produce a few walkers per item, so
// claiming singly would spend a noticeable share of the stage on the
// atomic. Claim order never affects results — every item carries its
// own seed and writes a disjoint walker range.
const itemClaim = 4

// timedItemWalkers is the walker count from which a work item is timed
// into core_vp_sample_ns and sampled under its partition's pprof label.
// Two clock reads, two label switches and an atomic add cost ~130 ns on
// a 2-vCPU KVM Xeon (the clock pair ~100 ns of it), and sampling costs
// 8–16 ns per walker-step there, so from this size on the timing is at
// most ~2% of the item. Smaller items — serving waves average about one
// walker per item — run under the stage's label, and their time stays
// in core_sample_step_ns alone.
const timedItemWalkers = 1024

// RunShard implements pool.Task for the sample stage. The only shard of
// a one-shard phase (an inline step, or a one-worker pool) samples the
// whole item list; pooled shards claim items off the shared counter.
func (t *sampleTask) RunShard(_, worker, workers int) {
	scr := t.s.scratches[worker]
	scr.block, scr.base = t.block, t.base
	if workers == 1 {
		t.sampleItems(t.items, scr)
		return
	}
	for {
		end := int(t.next.Add(itemClaim)) + 1
		lo := end - itemClaim
		if lo >= len(t.items) {
			return
		}
		t.sampleItems(t.items[lo:min(end, len(t.items))], scr)
	}
}

// sampleItems samples a run of work items on one worker. With metrics,
// walker-steps per kernel kind and walk shape go into the worker's
// scratch counters (folded once per step by run), and only items of at
// least timedItemWalkers walkers pay for a clock pair and a label switch.
func (t *sampleTask) sampleItems(items []sampleItem, scr *sampleScratch) {
	m := t.m
	for i := range items {
		it := &items[i]
		scr.src.Reseed(it.seed)
		chunk := t.sw[it.lo:it.hi]
		aux := sliceAux(t.auxSW, it.lo, it.hi, &scr.auxView)
		if m == nil {
			it.cx.sampleVPScratch(int(it.vp), chunk, aux, scr.src, scr)
			continue
		}
		n := uint64(len(chunk))
		scr.kernSteps[it.cx.kern[it.vp].kind] += n
		scr.shapeSteps[it.cx.class] += n
		if n < timedItemWalkers {
			it.cx.sampleVPScratch(int(it.vp), chunk, aux, scr.src, scr)
			continue
		}
		pprof.SetGoroutineLabels(m.vpCtx[it.vp])
		t0 := time.Now()
		it.cx.sampleVPScratch(int(it.vp), chunk, aux, scr.src, scr)
		m.vpSampleNS.Add(int(it.vp), uint64(time.Since(t0)))
		pprof.SetGoroutineLabels(m.sampleCtx)
	}
}

// run executes one sample stage over the shuffled walkers sw, whose
// occupied-partition chunks are chunks. cxs and prefixes are the active
// cohorts' sampling contexts and folded per-step seed prefixes, in
// walker-array order; lay locates several cohorts' walkers in each chunk
// (nil for one cohort). An engine holding its CSR samples all chunks as
// one group over its Targets; a streamed engine hands the chunks to its
// block source, which calls back once per group it has loaded and may
// fail the step. Once the stage succeeds its walker-steps are counted
// once: per partition from the chunk list, which the items partition
// exactly, into vpSteps (and core_vp_walker_steps), and per kernel kind
// and walk shape from the workers' scratch counters. A failed stage
// counts none of them.
func (t *sampleTask) run(chunks []walk.Chunk, sw []graph.VID, auxSW [][]graph.VID, vpSteps []uint64, cxs []*cohortCtx, prefixes []uint64, lay *cohortLayout) error {
	e := t.s.e
	t.sw, t.auxSW = sw, auxSW
	t.cxs, t.prefixes, t.lay = cxs, prefixes, lay
	t.nItems, t.subShards = 0, 0
	var err error
	if e.src != nil {
		err = e.src.Blocks(t.s.ctx, chunks, t.sampleGroup)
	} else {
		t.sampleGroup(chunks, e.g.Targets, 0)
	}
	t.sw, t.auxSW = nil, nil
	t.cxs, t.prefixes, t.lay, t.block = nil, nil, nil, nil
	m := t.m
	if m != nil {
		m.sampleItems.Observe(uint64(t.nItems))
		m.sampleSubShards.Add(uint64(t.subShards))
		for _, scr := range t.s.scratches {
			if err == nil {
				scr.foldSteps(m)
			}
			clear(scr.kernSteps[:])
			clear(scr.shapeSteps[:])
		}
	}
	if err != nil {
		return err
	}
	for _, c := range chunks {
		n := c.Hi - c.Lo
		vpSteps[c.VP] += n
		if m != nil {
			m.vpWalkerSteps.Add(c.VP, n)
		}
	}
	return nil
}

// sampleGroup samples the armed step's walkers in a group of its chunks,
// whose edges block holds from edge index base on: build the group's
// work items, then let pool workers claim them off the shared counter —
// or, for a step small enough to run inline (walk.RunsInline), claim them
// all on the calling goroutine. A single cohort owns every partition
// chunk whole; with several, lay locates each cohort's subrange of each
// chunk — the shuffle is stable, so a cohort's walkers are contiguous in
// every chunk. The lay.occ bitmask narrows the per-partition cohort scan
// to the cohorts present; set bits are visited in ascending cohort order,
// so subranges follow walker-array order.
//
// Sub-shard boundaries are cut from each subrange's start, so a cohort's
// (partition, sub-shard) items — and their seeds — are the same whether
// it runs alone, beside other cohorts, as one shard's local walkers, or
// in any grouping of a streamed step's chunks.
func (t *sampleTask) sampleGroup(chunks []walk.Chunk, block []graph.VID, base uint64) {
	items := t.items[:0]
	cxs, prefixes, lay := t.cxs, t.prefixes, t.lay
	for _, c := range chunks {
		vp, lo, hi := c.VP, c.Lo, c.Hi
		if len(cxs) == 1 {
			items = cutChunk(items, &t.subShards, cxs[0], prefixes[0], vp, lo, hi)
			continue
		}
		row := vp * lay.words
		for wd := 0; wd < lay.words; wd++ {
			for m := lay.occ[row+wd]; m != 0; m &= m - 1 {
				k := wd<<6 + bits.TrailingZeros64(m)
				n := uint64(lay.counts[k][vp])
				items = cutChunk(items, &t.subShards, cxs[k], prefixes[k], vp, lo, lo+n)
				lo += n
			}
		}
	}
	t.items = items
	t.nItems += len(items)
	t.block, t.base = block, base
	t.next.Store(-1)
	var ctx context.Context
	var pm *obs.PoolMetrics
	if m := t.m; m != nil {
		ctx, pm = m.sampleCtx, m.pool
	}
	if walk.RunsInline(len(t.sw)) {
		pool.Inline(t, 0, ctx, pm)
	} else {
		t.s.e.pool.Submit(t, 0, ctx, pm)
	}
}

// cutChunk appends the work items for one cohort's walkers [lo, hi) of
// partition vp. Only stateless first-order chunks split into sub-shards:
// PS partitions share mutable buffer state across the whole chunk, and
// higher-order paths batch over the full chunk. Pieces of a chunk that
// actually split are added to *subShards.
func cutChunk(items []sampleItem, subShards *int, cx *cohortCtx, prefix uint64, vp int, lo, hi uint64) []sampleItem {
	split := cx.spec.Order == 1 && cx.spec.History == nil && cx.kern[vp].st == nil
	sub := 0
	for a := lo; a < hi; sub++ {
		b := hi
		if split {
			b = subShardEnd(a, hi)
		}
		items = append(items, sampleItem{vp: int32(vp), lo: a, hi: b,
			seed: sampleSeedAt(prefix, vp, sub), cx: cx})
		a = b
	}
	if sub > 1 {
		*subShards += sub
	}
	return items
}

// sliceAux views each aux channel's [lo, hi) range, reusing the worker's
// view buffer to avoid per-partition allocations.
func sliceAux(aux [][]graph.VID, lo, hi uint64, buf *[][]graph.VID) [][]graph.VID {
	if len(aux) == 0 {
		return nil
	}
	views := (*buf)[:0]
	for c := range aux {
		views = append(views, aux[c][lo:hi])
	}
	*buf = views
	return views
}
