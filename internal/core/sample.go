package core

import (
	"math"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// cohortCtx binds one walk spec to the per-run sampling state that
// executes it: the spec itself, a kernel table whose st pointers are bound
// to its slot's PS buffers, and the weighted sampler when (and only when)
// the spec samples by weight. Every function of the sample stage
// hangs off this receiver, so one stage can interleave work items of
// different walks without sharing mutable state: every cohort of a run
// samples through its own slot's context, a solo run's being slot 0's
// (spec = the engine's).
type cohortCtx struct {
	e    *Engine
	spec *algo.Spec

	// kern is this context's kernel table: kern[i].st is partition i's
	// pre-sample state on PS kernels (nil otherwise), private to the slot.
	kern []vpKernel
	// weighted is the engine's alias-table sampler when spec.Weighted,
	// nil otherwise — a cohort with a uniform spec on a weighted build
	// must not draw by weight.
	weighted *algo.WeightedSampler
	// ov is the session's frozen delta overlay (nil on plain sessions):
	// chunk dispatch consults it for partitions whose mask bit is set and
	// samples those over base ∪ delta adjacency instead of the kernel.
	ov *Overlay
	// class indexes cohortClassNames for the per-walk-shape metrics.
	class int
}

// maxWeight returns the rejection bound of the active second-order walk.
func (c *cohortCtx) maxWeight() float64 {
	if tr := c.spec.Custom; tr != nil {
		return tr.MaxWeight
	}
	maxW := 1.0
	if 1/c.spec.P > maxW {
		maxW = 1 / c.spec.P
	}
	if 1/c.spec.Q > maxW {
		maxW = 1 / c.spec.Q
	}
	return maxW
}

// secondOrderWeight evaluates the active walk's transition weight.
func (c *cohortCtx) secondOrderWeight(prev, cur, x graph.VID) float64 {
	if tr := c.spec.Custom; tr != nil {
		return tr.Weight(c.e.g, prev, cur, x)
	}
	switch {
	case x == prev:
		return 1 / c.spec.P
	case c.e.g.HasEdge(prev, x):
		return 1
	default:
		return 1 / c.spec.Q
	}
}

// sampleScratch holds per-worker reusable state for the sample stage: the
// reseedable RNG the stage's work items draw from, plus the buffers of the
// batched second-order path. pending packs (predecessor VID << 32 | walker
// index) so grouping by predecessor is a flat uint64 sort.
type sampleScratch struct {
	src     *rng.XorShift1024Star
	cand    []graph.VID
	pending []uint64
	auxView [][]graph.VID
	hist    []graph.VID
	// block and base are the edge block the DS kernels read and the edge
	// index of its first entry, copied from the sample task per claim run.
	block []graph.VID
	base  uint64
	// kernSteps and shapeSteps count, with metrics on, the walker-steps
	// this worker sampled in the current step per kernel kind and per
	// walk shape: plain counters the sample stage folds into their metric
	// vectors once per step (foldSteps).
	kernSteps  [len(kernelKindNames)]uint64
	shapeSteps [len(cohortClassNames)]uint64
}

// foldSteps adds the worker's nonzero per-kernel and per-shape
// walker-step counts to m's vectors.
func (scr *sampleScratch) foldSteps(m *engineMetrics) {
	for k, n := range scr.kernSteps {
		if n != 0 {
			m.kernelSteps.Add(k, n)
		}
	}
	for c, n := range scr.shapeSteps {
		if n != 0 {
			m.cohortSteps.Add(c, n)
		}
	}
}

// newSampleScratch allocates a scratch with its own generator (reseeded
// per work item by the sample stage).
func newSampleScratch() *sampleScratch {
	return &sampleScratch{src: rng.NewXorShift1024Star(0)}
}

// batchThreshold is the chunk size above which second-order sampling
// switches to the batched connectivity-lookup path.
const batchThreshold = 64

// sampleVP advances every walker in one partition's shuffled chunk, in
// place (§4.2): a single sequential scan of the walker chunk, with all
// random accesses confined to the partition's working set.
func (s *Session) sampleVP(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star) {
	s.sampleVPScratch(vpIdx, chunk, aux, src, newSampleScratch())
}

// sampleVPScratch runs the walk bound to cohort slot 0 — the engine spec,
// after a solo run — over one partition chunk under whatever template
// the slot was last bound to: the solo-run entry point, retained so the
// equivalence suites drive the exact call the solo pipeline makes.
func (s *Session) sampleVPScratch(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	scr.block, scr.base = s.e.g.Targets, 0
	s.cohorts[0].cx.sampleVPScratch(vpIdx, chunk, aux, src, scr)
}

// sampleVPScratch dispatches one partition chunk to the walk-shape
// handler. The PS/DS/weighted kernel selection below it is per-partition
// (resolved at engine build, bound to the context's buffers), so the
// per-walker inner loops carry no policy branches.
func (c *cohortCtx) sampleVPScratch(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	if c.spec.History != nil {
		c.sampleVPHistory(vpIdx, chunk, aux, src, scr)
		return
	}
	if c.spec.StopProb > 0 {
		c.sampleVPStop(vpIdx, chunk, aux, src, scr)
		return
	}
	c.sampleVPSegment(vpIdx, chunk, aux, 0, len(chunk), true, src, scr)
}

// sampleVPSegment advances walkers [lo, hi) of a chunk one step with no
// restart handling — the shared body of the plain path (whole chunk) and
// the geometric-skip restart path (the stretches between restarts).
// allowBatch gates the batched second-order path so restart segments
// walk their walkers one by one, as the frozen reference does.
func (c *cohortCtx) sampleVPSegment(vpIdx int, chunk []graph.VID, aux [][]graph.VID, lo, hi int, allowBatch bool, src *rng.XorShift1024Star, scr *sampleScratch) {
	if hi <= lo {
		return
	}
	if c.spec.Order == 2 {
		seg, prev := chunk[lo:hi], aux[0][lo:hi]
		if allowBatch && hi-lo >= batchThreshold {
			c.kernSecondBatched(vpIdx, seg, prev, src, scr)
			return
		}
		c.kernSecondWalk(vpIdx, seg, prev, src)
		return
	}
	c.runChunkKernel(vpIdx, chunk[lo:hi], src, scr.block, scr.base)
}

// sampleVPStop advances a chunk under stochastic termination (Monte-Carlo
// PageRank semantics): a restarting walker teleports to a uniformly random
// vertex instead of taking an edge step. Rather than paying one Float64
// draw per walker to test restart, the distance to the next restart is
// drawn from the geometric law floor(ln(1-r)/ln(1-p)) and the walkers in
// between advance through the restart-free segment path. Restarts are
// i.i.d. Bernoulli(p) per walker-step and the walkers in a chunk are
// exchangeable, so a fresh geometric gap per chunk is distributionally
// exact; the non-restarting common case pays no per-walker restart draw.
func (c *cohortCtx) sampleVPStop(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	logq := math.Log1p(-c.spec.StopProb) // ln(1-p) < 0, finite for p < 1
	n := c.e.g.NumVertices()
	order2 := c.spec.Order == 2
	pos := 0
	for pos < len(chunk) {
		// gap ≥ 0: how many walkers advance normally before one restarts.
		// Compare in float64 first — for r near 1 the ratio overflows int.
		gap := math.Log1p(-src.Float64()) / logq
		if gap >= float64(len(chunk)-pos) {
			c.sampleVPSegment(vpIdx, chunk, aux, pos, len(chunk), false, src, scr)
			return
		}
		next := pos + int(gap)
		c.sampleVPSegment(vpIdx, chunk, aux, pos, next, false, src, scr)
		nv := graph.VID(src.Uint32n(n))
		chunk[next] = nv
		if order2 {
			aux[0][next] = nv
		}
		pos = next + 1
	}
}

// sampleVPHistory advances order-k walkers: candidates come from the
// partition's kernel (drawCand), acceptance from the history transition,
// and every walker's predecessor window shifts by one.
func (c *cohortCtx) sampleVPHistory(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	e := c.e
	k := &c.kern[vpIdx]
	tr := c.spec.History
	if cap(scr.hist) < tr.Window {
		scr.hist = make([]graph.VID, tr.Window)
	}
	hist := scr.hist[:tr.Window]
	for j := range chunk {
		v := chunk[j]
		for ch := 0; ch < tr.Window; ch++ {
			hist[ch] = aux[ch][j]
		}
		var next graph.VID
		switch d := e.g.Degree(v); {
		case d == 0:
			next = v
		case d == 1:
			// Single continuation: rejection must not spin on weight 0.
			next = e.g.Neighbors(v)[0]
		default:
			for {
				x := c.drawCand(k, v, src)
				w := tr.Weight(e.g, hist, v, x)
				if w >= tr.MaxWeight || src.Float64()*tr.MaxWeight < w {
					next = x
					break
				}
			}
		}
		for ch := tr.Window - 1; ch > 0; ch-- {
			aux[ch][j] = aux[ch-1][j]
		}
		aux[0][j] = v
		chunk[j] = next
	}
}
