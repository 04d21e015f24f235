// Package ooc implements out-of-core random walks on disk-resident
// graphs — the extension the paper plans as future work (§4.5, §7): since
// FlashMob's sample stage consumes each vertex partition's edges as one
// sequential block, the graph can stream from disk through a small DRAM
// window while the (much smaller) walker arrays stay memory-resident. The
// paper estimates a full 80-step DeepWalk needs ~5GB/s of streaming
// bandwidth, within commodity NVMe range.
//
// An Engine only supplies blocks: it plans the partitions from the block
// budget, pins a resident tier, and streams the rest, while a streamed
// internal/core engine (core.NewStreamed) steps the walkers — the same
// session, forward shuffle, sample stage and reverse gather as an
// in-memory run, so trajectories are bitwise-identical to internal/core
// on the same plan and seed, for any worker count or resident budget.
// Each step, partitions pinned in DRAM — the hottest blocks, chosen by a
// storage-level MCKP (profile.PlanResident) — are sampled with no IO
// while a single reader goroutine preads the streamed ones, coalesced
// into bandwidth-sized runs, into two block buffers: the worker pool
// samples one run while the next is read (double buffering).
//
// The engine processes direct-sampling partitions only: pre-sampling's
// per-vertex buffers are themselves edge-sized and would defeat the
// purpose on a disk-resident graph. Its kernels are therefore
// internal/core's sparse template: on a plan whose partitions carry PS
// policies, a core run below that build's sparse switch draws exactly
// what this engine draws on the same partitions.
package ooc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/walk"
)

// Config tunes the out-of-core engine.
type Config struct {
	// BlockBudget sizes the streamed partitions and the read buffers:
	// every partition's edge block must fit half of it, and the reader's
	// two buffers hold half of it each. Default 64 MiB.
	BlockBudget uint64
	// Seed drives sampling.
	Seed uint64
	// Workers is the engine's worker-pool size, parallelizing both block
	// sampling and the shuffle stages. Trajectories do not depend on it.
	Workers int
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
	// graph.File.DropCache) before every step's reads, modeling the steady
	// state of a graph far larger than RAM where no block survives in
	// cache between steps. Benchmarks use it: a just-written file is
	// page-cache-hot and its warm "reads" are memcpys that neither block
	// nor overlap. Trajectories are unaffected.
	ColdCache bool
	// RecordHistory keeps the W_i arrays (for tests; memory heavy).
	RecordHistory bool
	// Metrics enables the observability layer: streaming counters
	// accumulated on a registry and snapshotted into Result.Report. Off by
	// default (see docs/OBSERVABILITY.md).
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
	// IOWait is time the sample stage spent blocked waiting for a block
	// read (after overlap with sampling of the previous block).
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
	// ce is the streamed core engine that steps the walks, with this
	// engine as its block source.
	ce *core.Engine
	// bufs are the reader's two block buffers, allocated at New. Each
	// holds one IO run: adjacent streamed partitions merge into one pread
	// until the run would outgrow a buffer. Half the block budget
	// (double-buffer rule), clamped to what streaming can actually need.
	bufs [2][]graph.VID
	// raw is the reader's transfer scratch (see graph.ReadTargetsInto).
	raw []byte
	// pinned[vp] indexes partition vp's run in runs, or is -1 when the
	// partition is streamed.
	pinned []int32
	// runs holds the resident tier: each maximal range of adjacent
	// partitions the storage-tier knapsack pinned, loaded as one block.
	runs []residentRun
	// residentBytes is the DRAM spent on pinned blocks.
	residentBytes uint64
	// residentCount is the number of pinned partitions.
	residentCount int
	// jobs is a step's IO runs, reused across steps.
	jobs []streamJob
	// res is the Run in progress, which each step's blocks account into.
	res *Result
	// metrics is the observability state (nil unless Config.Metrics).
	metrics *oocMetrics
}

// residentRun is one pinned block: the edges of adjacent partitions and
// the edge index of its first entry.
type residentRun struct {
	block []graph.VID
	base  uint64
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
	if (cfg.Storage == profile.StorageParams{}) {
		cfg.Storage = profile.DefaultSSD()
	}
	if gf.NumVertices() == 0 {
		return nil, fmt.Errorf("ooc: empty graph")
	}
	plan, maxBlock, err := planForBudget(gf, cfg.BlockBudget/2)
	if err != nil {
		return nil, err
	}
	e := &Engine{gf: gf, plan: plan, cfg: cfg}
	if cfg.ColdCache {
		// The reader reads exactly the runs it needs, ahead of time;
		// kernel readahead past them only hides device time the modeled
		// DRAM-constrained regime would pay.
		_ = gf.AdviseRandom()
	}
	if cfg.Metrics {
		e.metrics = newOOCMetrics()
	}
	streamedEdges, err := e.pinResident()
	if err != nil {
		return nil, err
	}
	// A buffer never needs more than the streamed remainder: even a
	// maximally coalesced run cannot exceed the sum of non-pinned blocks.
	bufCap := min(max(cfg.BlockBudget/2/graph.VIDBytes, maxBlock), streamedEdges)
	for i := range e.bufs {
		e.bufs[i] = make([]graph.VID, bufCap)
	}
	e.ce, err = core.NewStreamed(gf.Offsets, algo.DeepWalk(), (*blockSource)(e), core.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Plan: plan, RecordHistory: cfg.RecordHistory,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Close releases the engine's worker pool. The graph file stays open (the
// caller owns it). Idempotent; Run returns an error wrapping
// core.ErrClosed afterwards.
func (e *Engine) Close() { e.ce.Close() }

// Plan returns the streaming partition plan.
func (e *Engine) Plan() *part.Plan { return e.plan }

// ResidentBytes returns the DRAM spent on the pinned resident tier.
func (e *Engine) ResidentBytes() uint64 { return e.residentBytes }

// ResidentPartitions returns how many partitions the storage-tier
// knapsack pinned in DRAM.
func (e *Engine) ResidentPartitions() int { return e.residentCount }

// pinResident solves the storage-level knapsack over the plan's
// partitions and eagerly loads the chosen blocks, one read per run of
// adjacent pinned partitions. Value of pinning a block = its stream-in
// time (Storage params) × the probability at least one of |V| walkers
// touches the partition in a step (degree-proportional landing
// approximation); weight = its bytes. It returns the edge count left to
// stream.
func (e *Engine) pinResident() (uint64, error) {
	nvp := e.plan.NumVPs()
	e.pinned = make([]int32, nvp)
	for vp := range e.pinned {
		e.pinned[vp] = -1
	}
	offs := e.gf.Offsets
	if e.cfg.ResidentBudget == 0 {
		return e.gf.NumEdges(), nil
	}
	totalEdges := float64(e.gf.NumEdges())
	walkers := float64(e.gf.NumVertices())
	classes := make([]profile.ResidentClass, nvp)
	for vp := range classes {
		vpMeta := e.plan.VPs[vp]
		edges := offs[vpMeta.End] - offs[vpMeta.Start]
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
	for vp := 0; vp < nvp; {
		if !pinned[vp] {
			vp++
			continue
		}
		end := vp + 1
		for end < nvp && pinned[end] {
			end++
		}
		lo, hi := offs[e.plan.VPs[vp].Start], offs[e.plan.VPs[end-1].End]
		block := make([]graph.VID, hi-lo)
		var err error
		if raw, err = e.gf.ReadTargetsInto(lo, hi, block, raw); err != nil {
			return 0, fmt.Errorf("ooc: load resident partitions [%d,%d): %w", vp, end, err)
		}
		for ; vp < end; vp++ {
			e.pinned[vp] = int32(len(e.runs))
			e.residentBytes += classes[vp].Bytes
			e.residentCount++
		}
		e.runs = append(e.runs, residentRun{block: block, base: lo})
	}
	if m := e.metrics; m != nil {
		m.residentBytes.Set(int64(e.residentBytes))
		m.residentParts.Set(int64(e.residentCount))
	}
	return e.gf.NumEdges() - e.residentBytes/graph.VIDBytes, nil
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

// streamJob is one IO run: adjacent streamed partitions — the step's
// chunks [c0, c1), consecutive in partition index — coalesced into a
// single pread of the edge range [lo, hi). Coalescing decouples the IO
// unit from the partition geometry: the plan's uniform power-of-2 cut is
// sized by the hub partition, so a skewed graph yields thousands of
// KiB-scale tail partitions, and one latency-bound read per partition
// would leave the device idle between tiny transfers.
type streamJob struct {
	c0, c1 int    // chunk range [c0, c1) covered by the run
	lo, hi uint64 // edge index range of the run
}

// blockLoad is one read IO run, handed from the reader to the sampler.
type blockLoad struct {
	buf    []graph.VID
	err    error
	readNS int64
}

// Run walks totalWalkers walkers (0 = |V|) for the given steps on a
// session of the engine's streamed core engine. ctx cancels the run
// between steps and during block waits: the reader is joined before Run
// returns (no leaks) and ctx.Err() is reported. An Engine runs one Run at
// a time.
func (e *Engine) Run(ctx context.Context, totalWalkers uint64, steps int) (*Result, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("ooc: steps must be positive")
	}
	if totalWalkers == 0 {
		totalWalkers = uint64(e.gf.NumVertices())
	}
	s, err := e.ce.NewSession(ctx)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	defer s.Close()
	res := &Result{Walkers: totalWalkers, Steps: steps, TotalSteps: totalWalkers * uint64(steps)}
	e.res = res
	if m := e.metrics; m != nil {
		m.runs.Inc()
	}
	cr, err := s.RunSeeded(e.cfg.Seed, totalWalkers, steps)
	if err != nil {
		return nil, err
	}
	res.Duration, res.History = cr.Duration, cr.History
	if m := e.metrics; m != nil {
		res.Report = m.reg.Snapshot()
	}
	return res, nil
}

// blockSource is the Engine in its core.BlockSource role, kept off the
// Engine's exported method set.
type blockSource Engine

// Blocks supplies one step's edge blocks. Chunks of pinned partitions
// are sampled from their resident runs, grouped by run, while the reader
// preads the streamed ones; streamed partitions with walkers coalesce
// into IO runs, each sampled as one group once read. A resident or
// walker-free partition breaks a run (its bytes are never read);
// walker-free ones are the gaps in the chunks' partition indexes.
func (b *blockSource) Blocks(ctx context.Context, chunks []walk.Chunk, sample func([]walk.Chunk, []graph.VID, uint64)) error {
	e := (*Engine)(b)
	if e.cfg.ColdCache {
		_ = e.gf.DropCache() // best-effort; no-op off Linux
	}
	m, res := e.metrics, e.res
	if m != nil {
		m.steps.Inc()
	}
	bufCap := uint64(len(e.bufs[0]))
	jobs := e.jobs[:0]
	read := 0 // streamed partitions with walkers this step
	for ci, c := range chunks {
		vp := c.VP
		elo, ehi := e.gf.Offsets[e.plan.VPs[vp].Start], e.gf.Offsets[e.plan.VPs[vp].End]
		if e.pinned[vp] >= 0 {
			res.ResidentHits++
			if m != nil {
				m.residentHits.Inc()
				m.residentSaved.Add((ehi - elo) * graph.VIDBytes)
			}
			continue
		}
		read++
		if n := len(jobs); n > 0 {
			// The run stays open only through consecutive streamed
			// partitions: the previous chunk is its last and sits right
			// before this one.
			if run := &jobs[n-1]; run.c1 == ci && chunks[ci-1].VP == vp-1 && ehi-run.lo <= bufCap {
				run.c1, run.hi = ci+1, ehi
				continue
			}
		}
		jobs = append(jobs, streamJob{c0: ci, c1: ci + 1, lo: elo, hi: ehi})
	}
	e.jobs = jobs
	if m != nil {
		m.residentMisses.Add(uint64(read))
		// No walkers landed in the other streamed partitions: their disk
		// reads were skipped.
		m.skipped.Add(uint64(e.plan.NumVPs() - e.residentCount - read))
	}

	var loads chan blockLoad
	var free chan []graph.VID
	if len(jobs) > 0 {
		// Each channel holds at most the two buffers, so no send blocks.
		loads, free = make(chan blockLoad, len(e.bufs)), make(chan []graph.VID, len(e.bufs))
		for _, buf := range e.bufs {
			free <- buf
		}
		rctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		wg.Add(1)
		go e.read(rctx, &wg, free, loads)
		// LIFO: cancel fires before the join, so every exit path —
		// including a panic unwinding through here — releases the reader
		// first.
		defer wg.Wait()
		defer cancel()
	}

	// Resident pass, overlapped with the first reads: one group per
	// resident run.
	for i := 0; i < len(chunks); {
		r := e.pinned[chunks[i].VP]
		j := i + 1
		for j < len(chunks) && e.pinned[chunks[j].VP] == r {
			j++
		}
		if r >= 0 {
			sample(chunks[i:j], e.runs[r].block, e.runs[r].base)
		}
		i = j
	}

	for _, job := range jobs {
		t0 := time.Now()
		var ld blockLoad
		select {
		case ld = <-loads:
		case <-ctx.Done():
			return ctx.Err()
		}
		wait := time.Since(t0)
		res.IOWait += wait
		if ld.err != nil {
			return ld.err
		}
		blockBytes := uint64(len(ld.buf)) * graph.VIDBytes
		res.BytesRead += blockBytes
		res.Blocks++
		if m != nil {
			m.ioWaitNS.Add(uint64(wait))
			m.ioReadNS.Add(uint64(ld.readNS))
			m.blocks.Inc()
			m.bytes.Add(blockBytes)
			m.blockBytes.Observe(blockBytes)
			s0 := time.Now()
			sample(chunks[job.c0:job.c1], ld.buf, job.lo)
			m.blockSampleNS.Observe(uint64(time.Since(s0)))
		} else {
			sample(chunks[job.c0:job.c1], ld.buf, job.lo)
		}
		free <- ld.buf
	}
	return nil
}

// read is a step's reader: it preads the step's IO runs in order, each
// into whichever of the two buffers the sampler has released, and hands
// it over on loads. It stops after a failed read or when ctx is done.
func (e *Engine) read(ctx context.Context, wg *sync.WaitGroup, free <-chan []graph.VID, loads chan<- blockLoad) {
	defer wg.Done()
	for _, j := range e.jobs {
		var buf []graph.VID
		select {
		case buf = <-free:
		case <-ctx.Done():
			return
		}
		buf = buf[:j.hi-j.lo]
		t0 := time.Now()
		var err error
		e.raw, err = e.gf.ReadTargetsInto(j.lo, j.hi, buf, e.raw)
		loads <- blockLoad{buf: buf, err: err, readNS: int64(time.Since(t0))}
		if err != nil {
			return
		}
	}
}
