package core

import (
	"math"
	"slices"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// cohortCtx binds one walk spec to the per-run sampling state that
// executes it: the spec itself, a kernel table whose st pointers are bound
// to this context's PS buffers, and the weighted sampler when (and only
// when) the spec samples by weight. Every function of the sample stage
// hangs off this receiver, so one stage can interleave work items of
// different walks without sharing mutable state: every cohort of a run
// samples through its own slot's context, a solo run's being slot 0's
// (spec = the engine's).
type cohortCtx struct {
	e    *Engine
	spec *algo.Spec

	// kern is this context's kernel table with st bound to ps below.
	kern []vpKernel
	// ps[i] is partition i's pre-sample state (nil for DS partitions),
	// private to this context.
	ps []*psState
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

// drawEdge samples one out-edge target of v according to the walk's
// first-order distribution (uniform or weight-proportional), reading the
// adjacency list directly. Degree must be nonzero.
func (c *cohortCtx) drawEdge(v graph.VID, src rng.Source) graph.VID {
	if c.weighted != nil {
		return c.weighted.Next(v, src)
	}
	adj := c.e.g.Neighbors(v)
	return adj[rng.Uint32n(src, uint32(len(adj)))]
}

// refill repopulates v's pre-sampled edge buffer with d(v) fresh samples —
// the PS production step (§4.2): random reads confined to one adjacency
// list, one sequential write stream into the buffer.
func (c *cohortCtx) refill(st *psState, v graph.VID, d uint32, src rng.Source) {
	off := c.e.g.Offsets[v] - st.base
	buf := st.buf[off : off+uint64(d)]
	if c.weighted != nil {
		for k := range buf {
			buf[k] = c.weighted.Next(v, src)
		}
	} else {
		adj := c.e.g.Neighbors(v)
		for k := range buf {
			buf[k] = adj[rng.Uint32n(src, d)]
		}
	}
	st.remaining[v-st.start] = d
}

// nextPS consumes one pre-sampled edge of v, refilling the buffer when
// drained — the PS consumption step. Degree must be nonzero.
func (c *cohortCtx) nextPS(st *psState, v graph.VID, src rng.Source) graph.VID {
	idx := v - st.start
	d := c.e.g.Degree(v)
	if st.remaining[idx] == 0 {
		c.refill(st, v, d, src)
	}
	off := c.e.g.Offsets[v] - st.base
	sample := st.buf[off+uint64(d-st.remaining[idx])]
	st.remaining[idx]--
	return sample
}

// sampleFirst advances a first-order walker at v within partition vpIdx.
func (c *cohortCtx) sampleFirst(vpIdx int, v graph.VID, src rng.Source) graph.VID {
	e := c.e
	if ov := c.ov; ov != nil && ov.touched(vpIdx) {
		return c.sampleFirstOverlay(ov.ext[vpIdx], v, src)
	}
	if st := c.ps[vpIdx]; st != nil {
		if e.g.Degree(v) == 0 {
			return v
		}
		return c.nextPS(st, v, src)
	}
	// DS: uniform-degree partitions use pure-arithmetic indexing into the
	// partition's contiguous edge block (the compact storage of §4.2);
	// mixed-degree partitions fall back to CSR.
	if reg := e.regularDeg[vpIdx]; reg >= 0 && c.weighted == nil {
		if reg == 0 {
			return v
		}
		vp := e.plan.VPs[vpIdx]
		base := e.g.Offsets[vp.Start]
		d := uint32(reg)
		return e.g.Targets[base+uint64(v-vp.Start)*uint64(d)+uint64(rng.Uint32n(src, d))]
	}
	if e.g.Degree(v) == 0 {
		return v
	}
	return c.drawEdge(v, src)
}

// sampleSecond advances a node2vec walker at v (predecessor prev) via
// rejection sampling; candidates come from the pre-sampled buffer on PS
// partitions, batching candidate generation as §5.2 describes.
func (c *cohortCtx) sampleSecond(vpIdx int, v, prev graph.VID, src rng.Source) graph.VID {
	e := c.e
	d := e.g.Degree(v)
	if d == 0 {
		return v
	}
	maxW := c.maxWeight()
	if d == 1 {
		// A single neighbour is the walk's only continuation; custom
		// weights of 0 must not spin forever.
		return e.g.Neighbors(v)[0]
	}
	st := c.ps[vpIdx]
	for {
		var x graph.VID
		if st != nil {
			x = c.nextPS(st, v, src)
		} else {
			x = c.sampleFirst(vpIdx, v, src)
		}
		w := c.secondOrderWeight(prev, v, x)
		if w >= maxW || rng.Float64(src)*maxW < w {
			return x
		}
	}
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
// per-walker inner loops carry no policy branches; Config.ScalarSample
// routes through the retained generic scalar path instead, which follows
// the identical draw discipline (the equivalence tests compare the two
// bitwise).
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
// allowBatch gates the batched second-order path so segment boundaries do
// not change which walkers batch relative to the scalar reference.
func (c *cohortCtx) sampleVPSegment(vpIdx int, chunk []graph.VID, aux [][]graph.VID, lo, hi int, allowBatch bool, src *rng.XorShift1024Star, scr *sampleScratch) {
	if hi <= lo {
		return
	}
	if c.spec.Order == 2 {
		seg, prev := chunk[lo:hi], aux[0][lo:hi]
		if allowBatch && hi-lo >= batchThreshold {
			if c.e.cfg.ScalarSample {
				c.sampleVPSecondBatched(vpIdx, seg, prev, src, scr)
			} else {
				c.kernSecondBatched(vpIdx, seg, prev, src, scr)
			}
			return
		}
		if c.e.cfg.ScalarSample {
			for j := range seg {
				v := seg[j]
				next := c.sampleSecond(vpIdx, v, prev[j], src)
				prev[j] = v
				seg[j] = next
			}
			return
		}
		c.kernSecondWalk(vpIdx, seg, prev, src)
		return
	}
	if c.e.cfg.ScalarSample {
		seg := chunk[lo:hi]
		for j := range seg {
			seg[j] = c.sampleFirst(vpIdx, seg[j], src)
		}
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
// partition's PS/DS machinery, acceptance from the history transition,
// and every walker's predecessor window shifts by one.
func (c *cohortCtx) sampleVPHistory(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	e := c.e
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
				x := c.sampleFirst(vpIdx, v, src)
				w := tr.Weight(e.g, hist, v, x)
				if w >= tr.MaxWeight || rng.Float64(src)*tr.MaxWeight < w {
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

// sampleVPSecondBatched is the batched node2vec sample path (§5.2: "though
// FlashMob again batches such lookups"): it decouples candidate generation
// (confined to the partition, PS/DS as usual) from the connectivity checks
// against each walker's predecessor, and groups the checks by predecessor
// so lookups into the same out-of-partition adjacency list run
// back-to-back and hit cache. Rejected walkers redraw in subsequent
// rounds; acceptance probability is bounded below by min(1, 1/p, 1/q)/maxW
// so rounds terminate quickly.
func (c *cohortCtx) sampleVPSecondBatched(vpIdx int, chunk, aux []graph.VID, src rng.Source, scr *sampleScratch) {
	e := c.e
	maxW := c.maxWeight()
	n := len(chunk)
	if cap(scr.cand) < n {
		scr.cand = make([]graph.VID, n)
		scr.pending = make([]uint64, 0, n)
	}
	cand := scr.cand[:n]
	pending := scr.pending[:0]
	for i := range chunk {
		switch e.g.Degree(chunk[i]) {
		case 0:
			aux[i] = chunk[i] // dead end: stay, predecessor becomes self
			continue
		case 1:
			// Only continuation: take it unconditionally (rejection could
			// spin forever on custom weight 0).
			next := e.g.Neighbors(chunk[i])[0]
			aux[i] = chunk[i]
			chunk[i] = next
			continue
		}
		pending = append(pending, uint64(aux[i])<<32|uint64(uint32(i)))
	}
	// Group the connectivity checks by predecessor once up front:
	// consecutive lookups then share the predecessor's adjacency list in
	// cache, and the walk over predecessors is monotone in VID (hubs
	// first, matching the degree-sorted layout).
	slices.Sort(pending)
	// The PS-vs-DS decision is partition-invariant: resolve it once, not
	// per pending walker per round.
	st := c.ps[vpIdx]
	for len(pending) > 0 {
		// Candidate generation: local to the partition (pre-sampled
		// buffers or direct reads), one sequential pass.
		for _, key := range pending {
			i := uint32(key)
			if st != nil {
				cand[i] = c.nextPS(st, chunk[i], src)
			} else {
				cand[i] = c.sampleFirst(vpIdx, chunk[i], src)
			}
		}
		next := pending[:0]
		for _, key := range pending {
			i := uint32(key)
			prev, x := graph.VID(key>>32), cand[i]
			w := c.secondOrderWeight(prev, chunk[i], x)
			if w >= maxW || rng.Float64(src)*maxW < w {
				aux[i] = chunk[i]
				chunk[i] = x
			} else {
				next = append(next, key)
			}
		}
		// Rejected keys keep their sorted order, so no re-sort is needed
		// between rounds.
		pending = next
	}
	scr.pending = pending[:0]
}
