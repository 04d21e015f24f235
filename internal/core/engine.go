// Package core implements the FlashMob engine: the paper's two-stage
// sample/shuffle random-walk pipeline over a degree-sorted, partitioned
// graph, with per-partition pre-sampling (PS) or direct sampling (DS)
// policies chosen by the MCKP planner (§4).
//
// The engine is split into an immutable build and per-run sessions: New
// resolves everything that depends only on the graph, the walk spec, and
// the plan (kernel table, degree classification, alias tables, cost
// model, the persistent worker pool), while every Run — or every
// explicitly held Session — owns its own mutable state (PS buffers,
// work-item lists, scratches, metrics registry). Runs from concurrent
// goroutines therefore share one build and interleave their stage
// phases on the shared pool.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/part"
	"flashmob/internal/pool"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// ErrClosed is returned by Run and NewSession after Close has released
// the engine's worker pool.
var ErrClosed = errors.New("core: engine closed")

// PlannerKind selects how the engine partitions the graph.
type PlannerKind int

const (
	// PlannerMCKP is the paper's DP-optimized planner (default).
	PlannerMCKP PlannerKind = iota
	// PlannerUniformPS cuts equal VPs, all pre-sampling. Like every
	// plan's PS partitions, they pre-sample only for runs and cohorts of
	// at least SparseSwitch walkers (at most |V|); smaller ones bind the
	// sparse template and direct-sample every partition.
	PlannerUniformPS
	// PlannerUniformDS cuts equal VPs, all direct sampling.
	PlannerUniformDS
	// PlannerManual applies the authors' pre-MCKP heuristic.
	PlannerManual
)

// InitMode selects walker start placement.
type InitMode int

const (
	// InitVertexSequential starts walker j at vertex j mod |V| — the
	// DeepWalk/node2vec convention of one walk per vertex.
	InitVertexSequential InitMode = iota
	// InitEdgeUniform places walkers proportionally to degree (uniform
	// over edges), the initialization of the paper's Table 2 profiling.
	InitEdgeUniform
	// InitVertexUniform places walkers uniformly over vertices.
	InitVertexUniform
)

// Config tunes the engine.
type Config struct {
	// Workers is the sampling/shuffling thread count (default
	// GOMAXPROCS).
	Workers int
	// Seed drives all engine randomness.
	Seed uint64
	// Planner picks the partitioning strategy (default MCKP).
	Planner PlannerKind
	// Plan, if non-nil, overrides the planner entirely.
	Plan *part.Plan
	// Model prices partitions for the planner (default: analytical model
	// on the paper's cache geometry).
	Model profile.CostModel
	// Part carries planner parameters (bins, groups, sizes); Walkers and
	// Model fields inside are filled by the engine.
	Part part.Config
	// Init chooses walker start placement.
	Init InitMode
	// MemoryBudget caps the walker-array bytes per episode; 0 means
	// unlimited. The engine splits a large request into episodes, as the
	// paper does based on DRAM capacity (§5.1).
	MemoryBudget uint64
	// RecordHistory keeps every W_i array so paths can be produced: the
	// run steps its walkers through one step-major buffer of
	// (steps+1) × walkers VIDs that becomes the result's history.
	RecordHistory bool
	// Metrics enables the observability layer (internal/obs): per-stage
	// and per-partition counters and latency histograms collected on a
	// per-session registry (each Result.Report describes its own run),
	// folded into an engine-lifetime aggregate on session close, plus
	// pool busy/barrier accounting and runtime/pprof stage labels on
	// worker goroutines. Off by default; when off, every recording site
	// reduces to a nil check (see docs/OBSERVABILITY.md for the metric
	// reference and the measured overhead).
	Metrics bool
	// StepSink, when non-nil, receives every iteration's sampled edges in
	// walker order: cur[j] → next[j] is walker j's transition at the
	// given step. This is the paper's streaming output mode (§4.3:
	// "stream the sampled edges to the GPU performing graph embedding
	// training") — no history is retained for the caller. Without
	// RecordHistory the slices are reused across steps, so the sink must
	// copy anything it keeps; with RecordHistory they are rows of the
	// run's history and the sink must not write them. With concurrent
	// sessions the sink is called from multiple goroutines.
	StepSink func(step int, cur, next []graph.VID)
}

// Engine is the immutable build of one graph + one algorithm spec: the
// plan, the kernel table, the degree classification, and the persistent
// worker pool, all resolved once by New. Mutable run state lives in
// Sessions; Run (and therefore System.Walk) is safe to call from
// concurrent goroutines, each call running on its own session.
type Engine struct {
	g    *graph.CSR
	spec algo.Spec
	cfg  Config
	plan *part.Plan

	// pool is the persistent worker set every stage of every step runs
	// on: created once here and shared by all sessions, whose phases it
	// multiplexes, so the steady-state step loop spawns no goroutines.
	pool *pool.Pool

	// regularDeg[i] is the uniform degree of VP i when all its vertices
	// share one degree (the simplified direct-indexing fast path of §4.2),
	// or -1 for mixed-degree partitions.
	regularDeg []int64

	// psVP[i] marks VP i as pre-sampling in the plan: a plan-template
	// bind gives its context psState buffers for these partitions (the
	// buffers are consumed and refilled during sampling, so they cannot be
	// shared across runs).
	psVP []bool

	// kern[i] is VP i's specialized sample kernel in the plan's template,
	// resolved once at build time from the plan, the PS allocation, and
	// the degree shape (§4.2). The template's st pointers are nil; each
	// bind copies it and points them at its own psState. kernUW is the
	// unweighted-spec template for cohorts of a mixed run walking
	// unweighted specs on a weighted build (nil on unweighted builds,
	// where it would equal kern).
	kern   []vpKernel
	kernUW []vpKernel

	// sparse and sparseUW are the sparse template over the same VP
	// boundaries: every partition the plan marks PS uses its DS kernel
	// instead. Cohorts of fewer than sparseSwitch walkers bind it (see
	// bindsPlan).
	sparse, sparseUW []vpKernel

	// sparseSwitch is W*, the walker count from which the plan's PS
	// partitions price no more than direct sampling them (part.SparseSwitch
	// under the build's cost model, capped at the walker count the plan
	// was priced for); 0 when the plan has no PS partition. sparseDS counts
	// the partitions whose kernel the two templates disagree on.
	sparseSwitch uint64
	sparseDS     int

	// weighted is the alias-table sampler for weighted walks (nil
	// otherwise).
	weighted *algo.WeightedSampler

	// src supplies the edge blocks of a streamed engine (NewStreamed),
	// whose g carries Offsets only; nil on engines that hold their CSR.
	src BlockSource

	// metrics is the engine-lifetime aggregate registry (nil unless
	// Config.Metrics): sessions record into their own registries and
	// drain them in here on close. It also carries the shared pprof label
	// contexts.
	metrics *engineMetrics

	// Session lifecycle: NewSession refuses after Close, Close waits for
	// active sessions to finish before releasing the pool, and finished
	// sessions park in idle for reuse with their PS buffers and step
	// state, until Close drops them (unlike a sync.Pool, a collection
	// cycle never discards one, so a reused session never rebuilds).
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup
	idle   []*Session
}

// New builds an engine. The graph must be degree-sorted (descending); use
// graph.SortByDegreeDesc first (the public facade does this
// automatically).
func New(g *graph.CSR, spec algo.Spec, cfg Config) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if !graph.IsDegreeSorted(g) {
		return nil, fmt.Errorf("core: graph must be sorted by descending degree (see graph.SortByDegreeDesc)")
	}
	if spec.Weighted && g.Weights == nil {
		return nil, fmt.Errorf("core: weighted walk on unweighted graph")
	}
	if spec.Weighted && spec.Order == 2 {
		return nil, fmt.Errorf("core: weighted second-order walks are not supported (rejection sampling assumes uniform candidates)")
	}
	if cfg.Model == nil {
		cfg.Model = profile.NewAnalyticalModel(mem.PaperGeometry())
	}
	e := &Engine{g: g, spec: spec, cfg: cfg}

	if spec.Weighted {
		ws, err := algo.NewWeightedSampler(g)
		if err != nil {
			return nil, err
		}
		e.weighted = ws
	}

	planned := cfg.Part.Walkers
	if planned == 0 {
		planned = uint64(g.NumVertices())
	}
	plan := cfg.Plan
	if plan == nil {
		pcfg := cfg.Part
		pcfg.Model = cfg.Model
		pcfg.Walkers = planned
		var err error
		switch cfg.Planner {
		case PlannerMCKP:
			plan, err = part.PlanMCKP(g, pcfg)
		case PlannerUniformPS:
			plan, err = part.PlanUniform(g, pcfg, profile.PS)
		case PlannerUniformDS:
			plan, err = part.PlanUniform(g, pcfg, profile.DS)
		case PlannerManual:
			plan, err = part.ManualHeuristic{}.PlanManual(g, pcfg)
		default:
			err = fmt.Errorf("core: unknown planner %d", cfg.Planner)
		}
		if err != nil {
			return nil, err
		}
	} else if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: supplied plan invalid: %w", err)
	}
	if err := e.setPlan(plan); err != nil {
		return nil, err
	}
	e.sparseSwitch = part.SparseSwitch(plan, g, planned, cfg.Model)
	e.buildKernels()
	return e, nil
}

// BlockSource supplies the edge blocks of a streamed engine: internal/ooc
// streams them from disk. Blocks is handed each step's occupied-partition
// chunks, in ascending partition order. It calls sample once per
// contiguous group of chunks whose edges it has loaded, with a block
// holding at least the group's edge range and the edge index of the
// block's first entry, and returns once every chunk has been sampled or
// with the first error (ctx.Err() on cancellation). Item seeds key on
// (step, partition, sub-shard), so trajectories do not depend on the
// grouping. Sessions call Blocks from their own goroutine, one step at a
// time each.
type BlockSource interface {
	Blocks(ctx context.Context, chunks []walk.Chunk, sample func(group []walk.Chunk, block []graph.VID, base uint64)) error
}

// NewStreamed builds an engine whose graph stays on src: offsets are the
// graph's CSR offsets, held in memory, and cfg.Plan is a direct-sampling
// plan over them. Its sample stage reads each partition's edges from the
// blocks src supplies instead of an edge array, so it refuses every path
// that would read one: PS partitions, weighted, second-order and history
// specs, and — at admission — overlays and such cohorts. The graph need
// not be degree-sorted.
func NewStreamed(offsets []uint64, spec algo.Spec, src BlockSource, cfg Config) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(offsets) < 2 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if src == nil || cfg.Plan == nil {
		return nil, fmt.Errorf("core: a streamed engine needs a block source and a plan")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: supplied plan invalid: %w", err)
	}
	for i, vp := range cfg.Plan.VPs {
		if vp.Policy == profile.PS {
			return nil, fmt.Errorf("core: a streamed engine direct-samples every partition; partition %d is PS", i)
		}
	}
	e := &Engine{g: &graph.CSR{Offsets: offsets}, spec: spec, cfg: cfg, src: src}
	if err := e.streamable(&spec); err != nil {
		return nil, err
	}
	if err := e.setPlan(cfg.Plan); err != nil {
		return nil, err
	}
	e.buildKernels() // no PS partition: sparseSwitch stays 0
	return e, nil
}

// streamable refuses, on a streamed engine, a spec whose sampling would
// read the edge array outside the direct-sampling kernels.
func (e *Engine) streamable(sp *algo.Spec) error {
	if e.src != nil && (sp.Order != 1 || sp.Weighted) {
		return fmt.Errorf("core: a streamed engine samples first-order unweighted walks only")
	}
	return nil
}

// setPlan installs a validated plan over the engine's graph: it starts
// the worker pool, classifies the partitions and, with Config.Metrics,
// builds the aggregate registry.
func (e *Engine) setPlan(plan *part.Plan) error {
	g := e.g
	if plan.V != g.NumVertices() {
		return fmt.Errorf("core: plan covers %d vertices, graph has %d", plan.V, g.NumVertices())
	}
	e.plan = plan
	if e.cfg.Workers <= 0 {
		e.cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e.pool = pool.New(e.cfg.Workers)

	// Classify partitions; the PS buffers themselves are per-session.
	e.regularDeg = make([]int64, plan.NumVPs())
	e.psVP = make([]bool, plan.NumVPs())
	for i, vp := range plan.VPs {
		// Equal end degrees pin a degree-sorted partition's every degree;
		// a streamed graph need not be sorted, so it checks them all.
		e.regularDeg[i] = -1
		if d := g.Degree(vp.Start); d == g.Degree(vp.End-1) && (e.src == nil || sameDegree(g, vp.Start, vp.End, d)) {
			e.regularDeg[i] = int64(d)
		}
		e.psVP[i] = vp.Policy == profile.PS
	}
	if e.cfg.Metrics {
		e.metrics = newEngineMetrics(e, nil)
	}
	return nil
}

// sameDegree reports whether every vertex of [start, end) has degree d.
func sameDegree(g *graph.CSR, start, end graph.VID, d uint32) bool {
	for v := start; v < end; v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

// Plan returns the partitioning decision in effect.
func (e *Engine) Plan() *part.Plan { return e.plan }

// SparseSwitch returns W*, the walker count below which a cohort binds
// the sparse kernel template (every PS partition of the plan
// direct-sampled) instead of the plan's; 0 when the plan has no PS
// partition, so both templates are the same.
func (e *Engine) SparseSwitch() uint64 { return e.sparseSwitch }

// SparseDSVPs returns how many partitions are PS in the plan's
// kernel template but DS in the sparse one.
func (e *Engine) SparseDSVPs() int { return e.sparseDS }

// bindsPlan reports whether a cohort of the given walker count samples
// through the plan's kernel template (true) or the sparse one. A pure
// function of (build, walkers) that every driver applies — solo runs by
// their episode size, mixed and sharded cohorts by their walker count —
// so all of them draw the same randomness for the same cohort. Tests pin
// a template by setting sparseSwitch: 0 binds the plan's for every
// cohort, math.MaxUint64 the sparse one.
func (e *Engine) bindsPlan(walkers uint64) bool {
	return walkers >= e.sparseSwitch
}

// Close releases the engine's worker pool: it waits for active sessions
// to finish, then frees the parked goroutines. Idempotent; Run and
// NewSession return ErrClosed afterwards. Optional — an unreachable
// engine's pool is reclaimed by a finalizer — but deterministic.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.active.Wait()
	e.idle = nil
	e.pool.Close()
}

// Graph returns the engine's graph; a streamed engine's carries its
// Offsets only.
func (e *Engine) Graph() *graph.CSR { return e.g }

// Spec returns the walk specification.
func (e *Engine) Spec() algo.Spec { return e.spec }

// auxChannels returns the number of per-walker predecessor channels the
// walk carries: k-1 for order-k walks (1 for node2vec), 0 for first-order
// walks.
func (e *Engine) auxChannels() int { return auxChannelsFor(&e.spec) }

// auxChannelsFor is auxChannels for an arbitrary spec — mixed runs size
// their aux arrays to the widest cohort.
func auxChannelsFor(sp *algo.Spec) int {
	if sp.History != nil {
		return sp.History.Window
	}
	if sp.Order == 2 {
		return 1
	}
	return 0
}

// bytesPerWalker is the walker-array footprint per walker: W, SW, Wnext
// (4B each) plus the aux channel triples for higher-order walks.
func (e *Engine) bytesPerWalker() uint64 {
	return uint64(12) + uint64(12*e.auxChannels())
}

// EpisodeWalkers returns how many walkers fit one episode under the
// memory budget (at least 1) for a requested total.
func (e *Engine) EpisodeWalkers(total uint64) uint64 {
	if total == 0 {
		total = uint64(e.g.NumVertices())
	}
	if e.cfg.MemoryBudget == 0 {
		return total
	}
	fit := e.cfg.MemoryBudget / e.bytesPerWalker()
	if fit == 0 {
		fit = 1
	}
	if fit > total {
		return total
	}
	return fit
}

// initWalkers fills w with start positions per the configured mode.
func (e *Engine) initWalkers(w []graph.VID, src rng.Source) {
	n := e.g.NumVertices()
	switch e.cfg.Init {
	case InitVertexSequential:
		for j := range w {
			w[j] = graph.VID(uint32(j) % n)
		}
	case InitVertexUniform:
		for j := range w {
			w[j] = graph.VID(rng.Uint32n(src, n))
		}
	case InitEdgeUniform:
		initEdgeUniform(e.g, w, src)
	}
}

// initEdgeUniform places walkers proportionally to degree by batched
// sorted-draw placement: draw all edge indices up front, sort walker
// slots by drawn index, then resolve every draw in one merged sweep over
// the CSR offsets. O(W log W + V) instead of the O(W log V) of a binary
// search per walker, and the sweep touches Offsets sequentially instead
// of W random probes. Produces bit-identical placements to vertexOfEdge
// on the same draws.
func initEdgeUniform(g *graph.CSR, w []graph.VID, src rng.Source) {
	total := g.NumEdges()
	xs := make([]uint64, len(w))
	order := make([]int32, len(w))
	for j := range w {
		xs[j] = rng.Uint64n(src, total)
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) })
	offs := g.Offsets
	v := 0
	for _, j := range order {
		x := xs[j]
		for offs[v+1] <= x {
			v++
		}
		w[j] = graph.VID(v)
	}
}

// vertexOfEdge maps a uniform edge index to its source vertex by binary
// search over the CSR offsets — degree-proportional vertex sampling. Kept
// as the reference implementation for initEdgeUniform's merged sweep.
func vertexOfEdge(g *graph.CSR, x uint64) graph.VID {
	lo, hi := 0, int(g.NumVertices())
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if g.Offsets[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return graph.VID(lo)
}
