// Package ooc implements out-of-core random walks on disk-resident
// graphs — the extension the paper plans as future work (§4.5, §7): since
// FlashMob's sample stage consumes each vertex partition's edges as one
// sequential block, the graph can stream from disk through a small DRAM
// window while the (much smaller) walker arrays stay memory-resident. The
// paper estimates a full 80-step DeepWalk needs ~5GB/s of streaming
// bandwidth, within commodity NVMe range.
//
// The engine is overlap-first: an N-deep asynchronous prefetch ring of
// pooled block buffers keeps IOWorkers reads in flight ahead of the
// consumer with ordered delivery, each delivered block is sampled in
// parallel on the engine's worker pool using the in-memory engine's exact
// per-(step, partition, sub-shard) seed schedule (trajectories are
// worker-count- and depth-independent, and bitwise-identical to
// internal/core on the same plan), and a resident tier pins the
// hottest partition blocks in DRAM — a storage-level MCKP solved with
// profile.PlanResident — so they are never re-read.
//
// The engine processes direct-sampling partitions only: pre-sampling's
// per-vertex buffers are themselves edge-sized and would defeat the
// purpose on a disk-resident graph. Its kernel is therefore internal/core's
// sparse template: on a plan whose partitions carry PS policies, a core
// run below that build's sparse switch draws exactly what this engine
// draws on the same partitions.
package ooc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/pool"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// DefaultPrefetchDepth is the prefetch ring size when Config.PrefetchDepth
// is unset: enough lookahead to hide one block's latency behind sampling
// plus slack for jitter, without multiplying the buffer footprint much.
const DefaultPrefetchDepth = 4

// Config tunes the out-of-core engine.
type Config struct {
	// BlockBudget sizes the streamed partitions: every partition's edge
	// block must fit half of it (the footprint of the classic
	// double-buffered window, kept as the partitioning rule so plans — and
	// therefore trajectories — do not change with PrefetchDepth). The
	// prefetch ring holds up to PrefetchDepth such blocks. Default 64 MiB.
	BlockBudget uint64
	// Seed drives sampling.
	Seed uint64
	// Workers is the engine's worker-pool size, parallelizing both block
	// sampling and the shuffle stages. Trajectories do not depend on it.
	Workers int
	// PrefetchDepth is the number of block buffers in the prefetch ring —
	// how many reads may be in flight or parked ahead of the consumer.
	// 1 disables overlap entirely (the synchronous baseline); default
	// DefaultPrefetchDepth.
	PrefetchDepth int
	// IOWorkers is the number of goroutines issuing block reads ahead of
	// the consumer. Clamped to PrefetchDepth; default min(2, depth).
	IOWorkers int
	// ResidentBudget is the DRAM allowance, in bytes, for pinning hot
	// partition blocks so they are never re-read (0 disables the tier).
	// The pin set is chosen at New by a storage-level knapsack
	// (profile.PlanResident) valuing each block by its expected stream-in
	// time saved per step.
	ResidentBudget uint64
	// Storage prices block reads for the resident-tier knapsack; the zero
	// value means profile.DefaultSSD().
	Storage profile.StorageParams
	// ColdCache evicts the graph file's page cache (best-effort,
	// graph.File.DropCache) before every step, modeling the steady state
	// of a graph far larger than RAM where no block survives in cache
	// between steps. Benchmarks use it: a just-written file is
	// page-cache-hot and its warm "reads" are memcpys that neither block
	// nor overlap. Trajectories are unaffected.
	ColdCache bool
	// RecordHistory keeps the W_i arrays (for tests; memory heavy).
	RecordHistory bool
	// Metrics enables the observability layer: streaming and sampling
	// counters accumulated on a registry and snapshotted into
	// Result.Report. Off by default (see docs/OBSERVABILITY.md).
	Metrics bool
}

// Result reports an out-of-core run.
type Result struct {
	// Walkers is the number of walkers advanced.
	Walkers uint64
	// Steps is the number of pipeline steps taken.
	Steps int
	// TotalSteps is Walkers × Steps.
	TotalSteps uint64
	// Duration is the wall time of the run.
	Duration time.Duration
	// BytesRead is the total edge-block volume streamed from disk.
	BytesRead uint64
	// Blocks is the number of partition blocks streamed from disk.
	Blocks uint64
	// ResidentHits counts partition visits served from the pinned
	// resident tier instead of a disk read.
	ResidentHits uint64
	// IOWait is time the consumer spent blocked waiting for block
	// delivery (after overlap with sampling via the prefetch ring).
	IOWait time.Duration
	// History holds recorded W_i arrays when requested.
	History *walk.History
	// Report is the metrics snapshot of this run (nil unless
	// Config.Metrics; see docs/OBSERVABILITY.md for the field reference).
	Report *obs.Report
}

// PerStepNS returns wall nanoseconds per walker-step.
func (r *Result) PerStepNS() float64 {
	if r.TotalSteps == 0 {
		return 0
	}
	return float64(r.Duration.Nanoseconds()) / float64(r.TotalSteps)
}

// StreamBandwidth returns the effective disk streaming rate in bytes/sec.
func (r *Result) StreamBandwidth() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BytesRead) / r.Duration.Seconds()
}

// Engine walks a disk-resident graph. Build one with New, run walks with
// Run (one at a time; an Engine is not safe for concurrent Runs), release
// its worker pool with Close.
type Engine struct {
	gf   *graph.File
	plan *part.Plan
	cfg  Config
	// ringCap is the capacity of each prefetch ring buffer, in edge
	// entries. It doubles as the coalescing cap: adjacent streamed
	// partitions merge into one IO run until the run would outgrow a
	// ring buffer. Half the block budget (double-buffer rule), clamped
	// to what streaming can actually need.
	ringCap uint64
	// pool runs block sampling and the shuffle stages.
	pool *pool.Pool
	// scratch holds one reseedable sample RNG per pool worker.
	scratch []*rng.XorShift1024Star
	// resident holds the pinned edge block of each partition chosen by the
	// storage-tier knapsack (nil entry = streamed).
	resident [][]graph.VID
	// residentBytes is the DRAM spent on pinned blocks.
	residentBytes uint64
	// residentCount is the number of pinned partitions.
	residentCount int
	// metrics is the observability state (nil unless Config.Metrics).
	metrics *oocMetrics
}

// New prepares an engine over an opened graph file. The partition plan is
// derived from the block budget: uniform power-of-2 DS partitions, each
// small enough that its edge block fits half the budget. When
// cfg.ResidentBudget is nonzero the hottest blocks are loaded into DRAM
// now and pinned for the engine's lifetime.
func New(gf *graph.File, cfg Config) (*Engine, error) {
	if gf == nil {
		return nil, fmt.Errorf("ooc: nil graph file")
	}
	if cfg.BlockBudget == 0 {
		cfg.BlockBudget = 64 << 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = DefaultPrefetchDepth
	}
	if cfg.IOWorkers <= 0 {
		cfg.IOWorkers = 2
		if cfg.IOWorkers > cfg.PrefetchDepth {
			cfg.IOWorkers = cfg.PrefetchDepth
		}
	}
	if cfg.IOWorkers > cfg.PrefetchDepth {
		cfg.IOWorkers = cfg.PrefetchDepth
	}
	if (cfg.Storage == profile.StorageParams{}) {
		cfg.Storage = profile.DefaultSSD()
	}
	n := gf.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("ooc: empty graph")
	}
	plan, maxBlock, err := planForBudget(gf, cfg.BlockBudget/2)
	if err != nil {
		return nil, err
	}
	ringCap := cfg.BlockBudget / 2 / graph.VIDBytes
	if ringCap > gf.NumEdges() {
		ringCap = gf.NumEdges()
	}
	if ringCap < maxBlock {
		ringCap = maxBlock
	}
	e := &Engine{gf: gf, plan: plan, cfg: cfg, ringCap: ringCap}
	if cfg.ColdCache {
		// The ring reads exactly the runs it needs, ahead of time; kernel
		// readahead past them only hides device time the modeled
		// DRAM-constrained regime would pay.
		_ = gf.AdviseRandom()
	}
	if cfg.Metrics {
		e.metrics = newOOCMetrics()
	}
	if err := e.pinResident(); err != nil {
		return nil, err
	}
	e.pool = pool.New(cfg.Workers)
	e.scratch = make([]*rng.XorShift1024Star, e.pool.Workers())
	for i := range e.scratch {
		e.scratch[i] = rng.NewXorShift1024Star(uint64(i) + 1)
	}
	return e, nil
}

// Close releases the engine's worker pool. The graph file stays open (the
// caller owns it). Idempotent.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// Plan returns the streaming partition plan.
func (e *Engine) Plan() *part.Plan { return e.plan }

// ResidentBytes returns the DRAM spent on the pinned resident tier.
func (e *Engine) ResidentBytes() uint64 { return e.residentBytes }

// ResidentPartitions returns how many partitions the storage-tier
// knapsack pinned in DRAM.
func (e *Engine) ResidentPartitions() int { return e.residentCount }

// pinResident solves the storage-level knapsack over the plan's
// partitions and eagerly loads the chosen blocks. Value of pinning a
// block = its stream-in time (Storage params) × the probability at least
// one of |V| walkers touches the partition in a step (degree-proportional
// landing approximation); weight = its bytes.
func (e *Engine) pinResident() error {
	e.resident = make([][]graph.VID, e.plan.NumVPs())
	if e.cfg.ResidentBudget == 0 {
		return nil
	}
	totalEdges := float64(e.gf.NumEdges())
	walkers := float64(e.gf.NumVertices())
	classes := make([]profile.ResidentClass, e.plan.NumVPs())
	for vp := range classes {
		vpMeta := e.plan.VPs[vp]
		edges := e.gf.Offsets[vpMeta.End] - e.gf.Offsets[vpMeta.Start]
		bytes := edges * graph.VIDBytes
		touch := 0.0
		if edges > 0 && totalEdges > 0 {
			p := float64(edges) / totalEdges
			if p >= 1 {
				touch = 1
			} else {
				touch = 1 - math.Exp(walkers*math.Log1p(-p))
			}
		}
		classes[vp] = profile.ResidentClass{
			Bytes:   bytes,
			SavedNS: touch * e.cfg.Storage.BlockStreamNS(bytes),
		}
	}
	pinned := profile.PlanResident(classes, e.cfg.ResidentBudget)
	var raw []byte
	sumStreamed := uint64(0)
	for vp, pin := range pinned {
		vpMeta := e.plan.VPs[vp]
		lo, hi := e.gf.Offsets[vpMeta.Start], e.gf.Offsets[vpMeta.End]
		if !pin {
			sumStreamed += hi - lo
			continue
		}
		buf := make([]graph.VID, hi-lo)
		var err error
		raw, err = e.gf.ReadTargetsInto(lo, hi, buf, raw)
		if err != nil {
			return fmt.Errorf("ooc: load resident block %d: %w", vp, err)
		}
		e.resident[vp] = buf
		e.residentBytes += classes[vp].Bytes
		e.residentCount++
	}
	// Ring buffers never need more than the streamed remainder: even a
	// maximally coalesced run cannot exceed the sum of non-pinned blocks.
	if sumStreamed < e.ringCap {
		e.ringCap = sumStreamed
	}
	if m := e.metrics; m != nil {
		m.residentBytes.Set(int64(e.residentBytes))
		m.residentParts.Set(int64(e.residentCount))
	}
	return nil
}

// planForBudget cuts the vertex array into equal power-of-2 DS partitions
// whose largest edge block fits blockBytes.
func planForBudget(gf *graph.File, blockBytes uint64) (*part.Plan, uint64, error) {
	n := gf.NumVertices()
	szLog := uint(0)
	for (uint64(1) << szLog) < uint64(n) {
		szLog++
	}
	// Shrink VP size until every block fits.
	for {
		maxBlock := uint64(0)
		vpSize := graph.VID(1) << szLog
		for start := graph.VID(0); start < n; start += vpSize {
			end := start + vpSize
			if end > n {
				end = n
			}
			if b := gf.Offsets[end] - gf.Offsets[start]; b > maxBlock {
				maxBlock = b
			}
		}
		if maxBlock*graph.VIDBytes <= blockBytes || szLog == 0 {
			if maxBlock*graph.VIDBytes > blockBytes {
				return nil, 0, fmt.Errorf("ooc: a single vertex's adjacency (%dB) exceeds the block budget %dB",
					maxBlock*graph.VIDBytes, blockBytes)
			}
			plan, err := singleGroupPlan(n, szLog)
			if err != nil {
				return nil, 0, err
			}
			return plan, maxBlock, nil
		}
		szLog--
	}
}

// singleGroupPlan builds a one-group uniform DS plan.
func singleGroupPlan(n graph.VID, szLog uint) (*part.Plan, error) {
	groupLog := uint(0)
	for (uint64(1) << groupLog) < uint64(n) {
		groupLog++
	}
	nvp := int((uint64(n) + (1 << szLog) - 1) >> szLog)
	policies := make([]profile.Policy, nvp)
	for i := range policies {
		policies[i] = profile.DS
	}
	plan := &part.Plan{
		V:            n,
		GroupSizeLog: groupLog,
		Groups: []part.GroupPlan{{
			Start: 0, End: n, VPSizeLog: szLog, Policies: policies,
		}},
	}
	if err := part.Finalize(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// oocItem is one sample work item: a contiguous walker range of one
// partition, with its own RNG seed and the edge block it draws from.
type oocItem struct {
	buf  []graph.VID // edge block (ring buffer or resident)
	base uint64      // first edge index of the block
	lo   uint64      // walker range [lo, hi) in the shuffled array
	hi   uint64
	seed uint64
}

// oocSampleTask is the pool task advancing walkers over delivered blocks:
// workers claim items off a shared counter; every item reseeds the
// worker's scratch RNG with its own (step, partition, sub-shard) seed, so
// claim order — and therefore worker count — never affects trajectories.
type oocSampleTask struct {
	e     *Engine
	next  atomic.Int64
	items []oocItem
	sw    []graph.VID
}

// RunShard implements pool.Task.
func (t *oocSampleTask) RunShard(_, worker, _ int) {
	offs := t.e.gf.Offsets
	src := t.e.scratch[worker]
	for {
		idx := int(t.next.Add(1)) - 1
		if idx >= len(t.items) {
			return
		}
		it := t.items[idx]
		src.Reseed(it.seed)
		chunk := t.sw[it.lo:it.hi]
		for i, v := range chunk {
			off := offs[v]
			d := uint32(offs[v+1] - off)
			if d == 0 {
				continue
			}
			chunk[i] = it.buf[off-it.base+uint64(src.Uint32n(d))]
		}
	}
}

// appendItems cuts one partition's walker chunk into work items exactly
// the way internal/core does — same sub-shard boundaries
// (core.SubShardEnd), same seeds (core.SampleSeedAt) — which is what
// keeps ooc trajectories bitwise-identical to the in-memory engine. Every
// ooc chunk is splittable in core's sense: first-order walks, no history
// transition, and DS partitions carry no PS state.
func appendItems(items []oocItem, vp int, lo, hi uint64, prefix uint64, buf []graph.VID, base uint64) []oocItem {
	for a, sub := lo, 0; a < hi; sub++ {
		b := core.SubShardEnd(a, hi)
		items = append(items, oocItem{buf: buf, base: base, lo: a, hi: b,
			seed: core.SampleSeedAt(prefix, vp, sub)})
		a = b
	}
	return items
}

// streamJob is one IO run of the prefetch ring: adjacent streamed
// partitions — the shuffle's chunks [c0, c1), consecutive in partition
// index — coalesced into a single pread of the edge range [lo, hi).
// Coalescing decouples the IO unit from the partition
// geometry: the plan's uniform power-of-2 cut is sized by the hub
// partition, so a skewed graph yields thousands of KiB-scale tail
// partitions, and one latency-bound read per partition would leave the
// device idle between tiny transfers.
type streamJob struct {
	c0, c1 int    // chunk range [c0, c1) covered by the run
	lo, hi uint64 // edge index range of the run
}

// blockLoad is one prefetched edge-block run, delivered in job order.
type blockLoad struct {
	job    int
	buf    []graph.VID
	err    error
	readNS int64
}

// Run walks totalWalkers walkers (0 = |V|) for the given steps. ctx
// cancels the run between and during block waits: on cancellation every
// prefetch goroutine is drained before Run returns (no leaks) and
// ctx.Err() is reported. An Engine runs one Run at a time.
func (e *Engine) Run(ctx context.Context, totalWalkers uint64, steps int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if steps <= 0 {
		return nil, fmt.Errorf("ooc: steps must be positive")
	}
	if totalWalkers == 0 {
		totalWalkers = uint64(e.gf.NumVertices())
	}
	walkers := int(totalWalkers)

	w := make([]graph.VID, walkers)
	sw := make([]graph.VID, walkers)
	wNext := make([]graph.VID, walkers)
	n := e.gf.NumVertices()
	for j := range w {
		w[j] = graph.VID(uint32(j) % n)
	}

	shuffler, err := walk.NewShufflerPool(e.plan, walkers, e.pool)
	if err != nil {
		return nil, err
	}
	res := &Result{Walkers: totalWalkers, Steps: steps, TotalSteps: totalWalkers * uint64(steps)}
	if e.cfg.RecordHistory {
		res.History = walk.NewHistory(walkers)
		if err := res.History.Append(w); err != nil {
			return nil, err
		}
	}

	depth := e.cfg.PrefetchDepth
	ring := make([][]graph.VID, depth)
	for i := range ring {
		ring[i] = make([]graph.VID, e.ringCap)
	}
	task := &oocSampleTask{e: e}
	jobs := make([]streamJob, 0, e.plan.NumVPs())
	streamed := 0 // partitions without a resident block
	for _, buf := range e.resident {
		if buf == nil {
			streamed++
		}
	}

	if m := e.metrics; m != nil {
		m.runs.Inc()
	}
	start := time.Now()
	for st := 0; st < steps; st++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.cfg.ColdCache {
			_ = e.gf.DropCache() // best-effort; no-op off Linux
		}
		if m := e.metrics; m != nil {
			m.steps.Inc()
		}
		if err := shuffler.Forward(w, sw, nil, nil); err != nil {
			return nil, err
		}
		chunks := shuffler.Chunks()
		prefix := core.SampleSeedPrefix(e.cfg.Seed, 0, st)

		// Resident pass: partitions pinned in DRAM sample with no IO.
		// Streamed partitions with walkers coalesce into IO runs —
		// adjacent blocks merge until a run would outgrow a ring buffer —
		// so each pread stays bandwidth-sized even when the partition
		// geometry is KiB-scale. A resident or walker-free partition
		// breaks the run (its bytes are never read); walker-free ones are
		// the gaps in the chunk list's partition indexes.
		items := task.items[:0]
		jobs = jobs[:0]
		read := 0 // streamed partitions with walkers this step
		for ci, c := range chunks {
			vp, lo, hi := c.VP, c.Lo, c.Hi
			if buf := e.resident[vp]; buf != nil {
				base := e.gf.Offsets[e.plan.VPs[vp].Start]
				items = appendItems(items, vp, lo, hi, prefix, buf, base)
				res.ResidentHits++
				if m := e.metrics; m != nil {
					m.residentHits.Inc()
					m.residentSaved.Add(uint64(len(buf)) * graph.VIDBytes)
				}
				continue
			}
			read++
			vpMeta := e.plan.VPs[vp]
			if m := e.metrics; m != nil {
				m.residentMisses.Inc()
			}
			elo, ehi := e.gf.Offsets[vpMeta.Start], e.gf.Offsets[vpMeta.End]
			if n := len(jobs); n > 0 {
				// The run stays open only through consecutive streamed
				// partitions: the previous chunk is its last and sits
				// right before this one.
				if run := &jobs[n-1]; run.c1 == ci && chunks[ci-1].VP == vp-1 && ehi-run.lo <= e.ringCap {
					run.c1, run.hi = ci+1, ehi
					continue
				}
			}
			jobs = append(jobs, streamJob{c0: ci, c1: ci + 1, lo: elo, hi: ehi})
		}
		if m := e.metrics; m != nil {
			// No walkers landed in the other streamed partitions: their
			// disk reads were skipped.
			m.skipped.Add(uint64(streamed - read))
		}
		if err := e.streamStep(ctx, jobs, ring, items, task, sw, chunks, prefix, res); err != nil {
			return nil, err
		}

		if err := shuffler.Reverse(w, sw, wNext, nil, nil); err != nil {
			return nil, err
		}
		w, wNext = wNext, w
		if e.cfg.RecordHistory {
			if err := res.History.Append(w); err != nil {
				return nil, err
			}
		}
	}
	res.Duration = time.Since(start)
	if m := e.metrics; m != nil {
		res.Report = m.reg.Snapshot()
	}
	return res, nil
}

// streamStep runs one step's prefetch ring: job i is read into ring
// buffer i%depth, gated by a per-buffer token the consumer releases once
// it has sampled the buffer's previous occupant. Each ring slot is owned
// by exactly one IO worker (worker k owns slots s with s%iow == k), and
// an owner works through its slots' jobs in increasing job order — so
// the only goroutine ever waiting on a slot's token is the one holding
// that slot's next in-order job. That static ownership is what makes
// delivery ordered and the ring deadlock-free: a dynamic job claim would
// let a worker holding job i+depth steal the slot token from the worker
// holding job i and deliver out of order. Every goroutine is joined
// before return on all paths — success, read error, or ctx cancellation
// (cancel is deferred after the join so even a panic unwind releases the
// workers first). residentItems (the pinned partitions' walkers) are
// sampled after the first reads are issued, overlapping with the IO.
func (e *Engine) streamStep(ctx context.Context, jobs []streamJob, ring [][]graph.VID,
	residentItems []oocItem, task *oocSampleTask, sw []graph.VID, chunks []walk.Chunk,
	prefix uint64, res *Result) error {
	if len(jobs) == 0 {
		if len(residentItems) > 0 {
			task.items, task.sw = residentItems, sw
			task.next.Store(0)
			e.pool.Submit(task, 0, nil, nil)
		}
		return nil
	}
	depth := len(ring)
	ictx, cancel := context.WithCancel(ctx)

	slots := make([]chan blockLoad, depth)
	bufTok := make([]chan struct{}, depth)
	for i := 0; i < depth; i++ {
		slots[i] = make(chan blockLoad, 1)
		bufTok[i] = make(chan struct{}, 1)
		bufTok[i] <- struct{}{}
	}
	var ready atomic.Int64
	var wg sync.WaitGroup

	iow := e.cfg.IOWorkers
	if iow > len(jobs) {
		iow = len(jobs)
	}
	if iow > depth {
		iow = depth
	}
	for k := 0; k < iow; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var raw []byte
			for i := 0; i < len(jobs); i++ {
				slot := i % depth
				if slot%iow != k {
					continue // another worker owns this slot
				}
				select {
				case <-bufTok[slot]:
				case <-ictx.Done():
					return
				}
				j := jobs[i]
				buf := ring[slot][:j.hi-j.lo]
				t0 := time.Now()
				var err error
				raw, err = e.gf.ReadTargetsInto(j.lo, j.hi, buf, raw)
				load := blockLoad{job: i, buf: buf, err: err, readNS: int64(time.Since(t0))}
				ready.Add(1)
				select {
				case slots[slot] <- load:
				case <-ictx.Done():
					return
				}
				if err != nil {
					return
				}
			}
		}(k)
	}
	// LIFO: cancel fires before the join, so every exit path — including
	// a panic unwinding through here — releases blocked workers first.
	defer wg.Wait()
	defer cancel()

	if len(residentItems) > 0 {
		task.items, task.sw = residentItems, sw
		task.next.Store(0)
		e.pool.Submit(task, 0, nil, nil)
	}

	for i := range jobs {
		slot := i % depth
		t0 := time.Now()
		var load blockLoad
		select {
		case load = <-slots[slot]:
		case <-ictx.Done():
			return ctx.Err()
		}
		wait := time.Since(t0)
		res.IOWait += wait
		occ := ready.Add(-1) + 1
		if load.err != nil {
			return load.err
		}
		if load.job != i {
			return fmt.Errorf("ooc: prefetch ring delivered job %d where %d was expected", load.job, i)
		}
		blockBytes := uint64(len(load.buf)) * graph.VIDBytes
		res.BytesRead += blockBytes
		res.Blocks++
		if m := e.metrics; m != nil {
			m.ioWaitNS.Add(uint64(wait))
			m.ioReadNS.Add(uint64(load.readNS))
			m.prefetchReady.Observe(uint64(occ))
			m.blocks.Inc()
			m.bytes.Add(blockBytes)
			m.blockBytes.Observe(blockBytes)
			s0 := time.Now()
			e.sampleRun(task, load.buf, jobs[i], chunks, sw, prefix)
			m.blockSampleNS.Observe(uint64(time.Since(s0)))
		} else {
			e.sampleRun(task, load.buf, jobs[i], chunks, sw, prefix)
		}
		bufTok[slot] <- struct{}{}
	}
	return nil
}

// sampleRun advances the walkers of every partition in a delivered IO
// run on the worker pool: one submit covers the whole run, each
// partition drawing from its sub-slice of the run buffer. Items are
// seeded per (step, partition, sub-shard) exactly as if the partitions
// had been read one block at a time, so coalescing cannot change
// trajectories.
func (e *Engine) sampleRun(task *oocSampleTask, buf []graph.VID, j streamJob,
	chunks []walk.Chunk, sw []graph.VID, prefix uint64) {
	items := task.items[:0]
	for _, c := range chunks[j.c0:j.c1] {
		vp, lo, hi := c.VP, c.Lo, c.Hi
		base := e.gf.Offsets[e.plan.VPs[vp].Start]
		end := e.gf.Offsets[e.plan.VPs[vp].End]
		items = appendItems(items, vp, lo, hi, prefix, buf[base-j.lo:end-j.lo], base)
	}
	task.items, task.sw = items, sw
	task.next.Store(0)
	e.pool.Submit(task, 0, nil, nil)
	task.items = items[:0]
}
