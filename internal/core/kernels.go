package core

import (
	"slices"

	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// Specialized per-partition sample kernels (§4.2).
//
// The sampling policy (PS, DS over a uniform-degree block, DS over CSR,
// and their weighted forms) is invariant across a partition's whole
// chunk, so it is resolved once at engine build time into one kernel per
// partition, and every walk shape — first-order chunks, second-order
// rejection, order-k history rejection — draws through that kernel
// rather than re-testing the policy per walker. Kernels take the
// concrete *rng.XorShift1024Star so the xorshift1024* state update
// inlines into the sampling loop, leaving a few cache-resident loads
// plus the draw per walker-step — the per-step cost the paper's §5.2
// breakdown claims.
//
// sample_equiv_test.go locks every kernel bitwise against a frozen copy
// of the pre-kernel per-walker scalar code.

// kernelKind identifies one partition's specialized sample kernel.
type kernelKind uint8

const (
	// kernEmpty marks an all-degree-0 partition: walkers stay in place
	// and draw nothing.
	kernEmpty kernelKind = iota
	// kernPS consumes per-vertex pre-sampled buffers, refilling inline:
	// one Offsets load pair yields base offset and degree, random reads
	// stay confined to one adjacency list, and the refill keeps its
	// sequential write stream.
	kernPS
	// kernPSWeighted is kernPS with alias-table refills.
	kernPSWeighted
	// kernDSRegular direct-samples a uniform-degree partition by pure
	// arithmetic indexing into its contiguous edge block: no Offsets
	// loads, no degree test, one bounded draw per walker.
	kernDSRegular
	// kernDSCSR is the mixed-degree direct-sampling fallback: one Offsets
	// load pair, one bounded draw.
	kernDSCSR
	// kernDSWeighted direct-samples through per-vertex alias tables.
	kernDSWeighted
)

// vpKernel carries one partition's kernel selection plus the loads a
// per-walker sampler would re-derive: the PS state, the partition's base
// edge offset, and its uniform degree (DS-regular only).
type vpKernel struct {
	kind  kernelKind
	st    *psState
	start graph.VID
	base  uint64
	deg   uint32
}

// kernelTable resolves every partition's sample kernel from the plan, the
// PS policy, and the degree shape, into dst (allocated when nil or too
// short). weighted selects the alias-table kernels — a parameter rather
// than e.weighted because cohorts of a mixed run may walk unweighted
// specs on a weighted build. sparse resolves the sparse template, where
// PS partitions take their DS kernel. The st pointers stay nil:
// cohortState.bind points them at a psState set.
func (e *Engine) kernelTable(weighted, sparse bool, dst []vpKernel) []vpKernel {
	if cap(dst) < e.plan.NumVPs() {
		dst = make([]vpKernel, e.plan.NumVPs())
	}
	dst = dst[:e.plan.NumVPs()]
	for i, vp := range e.plan.VPs {
		k := vpKernel{start: vp.Start, base: e.g.Offsets[vp.Start]}
		switch {
		case e.regularDeg[i] == 0:
			k.kind = kernEmpty
		case e.psVP[i] && !sparse:
			if weighted {
				k.kind = kernPSWeighted
			} else {
				k.kind = kernPS
			}
		case weighted:
			k.kind = kernDSWeighted
		case e.regularDeg[i] > 0:
			k.kind = kernDSRegular
			k.deg = uint32(e.regularDeg[i])
		default:
			k.kind = kernDSCSR
		}
		dst[i] = k
	}
	return dst
}

// buildKernels resolves the engine-spec plan and sparse templates — plus
// their unweighted-spec variants on weighted builds, so cohort binds are
// a copy rather than a per-partition re-resolution — and counts the
// partitions the two templates disagree on. Called once by New; tests
// rebuild after mutating regularDeg to force the fallback kernels.
func (e *Engine) buildKernels() {
	w := e.weighted != nil
	e.kern = e.kernelTable(w, false, e.kern)
	e.sparse = e.kernelTable(w, true, e.sparse)
	if w {
		e.kernUW = e.kernelTable(false, false, e.kernUW)
		e.sparseUW = e.kernelTable(false, true, e.sparseUW)
	}
	e.sparseDS = 0
	for i := range e.kern {
		if e.kern[i].kind != e.sparse[i].kind {
			e.sparseDS++
		}
	}
}

// template returns the kernel template a cohort binds: plan or sparse,
// for a weighted or unweighted spec.
func (e *Engine) template(plan, weighted bool) []vpKernel {
	switch {
	case plan && (weighted || e.weighted == nil):
		return e.kern
	case plan:
		return e.kernUW
	case weighted || e.weighted == nil:
		return e.sparse
	default:
		return e.sparseUW
	}
}

// runChunkKernel advances a first-order chunk through the partition's
// kernel. Draw-for-draw identical to the frozen scalar reference. The DS
// kernels read the partition's edges from block, whose first entry is
// edge index base (the graph's Targets and 0 in memory); the others read
// the graph's Targets, which a streamed engine never reaches.
func (c *cohortCtx) runChunkKernel(vpIdx int, chunk []graph.VID, src *rng.XorShift1024Star, block []graph.VID, base uint64) {
	e := c.e
	// Delta-overlay sessions: partitions holding delta edges (one mask
	// test on overlay sessions, one nil check on plain ones) sample over
	// base ∪ delta through the overlay path instead of their kernel.
	if ov := c.ov; ov != nil && ov.touched(vpIdx) {
		c.sampleChunkOverlay(ov.ext[vpIdx], chunk, src)
		return
	}
	switch k := &c.kern[vpIdx]; k.kind {
	case kernEmpty:
	case kernPS:
		c.kernChunkPS(k.st, chunk, src)
	case kernPSWeighted:
		c.kernChunkPSWeighted(k.st, chunk, src)
	case kernDSRegular:
		kernChunkRegular(block, k.base-base, k, chunk, src)
	case kernDSCSR:
		kernChunkCSR(e.g.Offsets, block, base, chunk, src)
	case kernDSWeighted:
		c.kernChunkWeighted(chunk, src)
	}
}

// kernChunkPS is the PS kernel: refill is fused with consumption, so a
// drained buffer is repopulated and read in the same pass over the chunk.
func (c *cohortCtx) kernChunkPS(st *psState, chunk []graph.VID, src *rng.XorShift1024Star) {
	offs, targets := c.e.g.Offsets, c.e.g.Targets
	base, start := st.base, st.start
	buf, remaining := st.buf, st.remaining
	for j, v := range chunk {
		off := offs[v]
		d := uint32(offs[v+1] - off)
		if d == 0 {
			continue // dead end: walker stays, no draw
		}
		bo := off - base
		rem := remaining[v-start]
		if rem == 0 {
			adj := targets[off : off+uint64(d)]
			fill := buf[bo : bo+uint64(d)]
			for i := range fill {
				fill[i] = adj[src.Uint32n(d)]
			}
			rem = d
		}
		chunk[j] = buf[bo+uint64(d-rem)]
		remaining[v-start] = rem - 1
	}
}

// kernChunkPSWeighted is kernChunkPS with alias-table refills.
func (c *cohortCtx) kernChunkPSWeighted(st *psState, chunk []graph.VID, src *rng.XorShift1024Star) {
	offs := c.e.g.Offsets
	ws := c.weighted
	base, start := st.base, st.start
	buf, remaining := st.buf, st.remaining
	for j, v := range chunk {
		off := offs[v]
		d := uint32(offs[v+1] - off)
		if d == 0 {
			continue
		}
		bo := off - base
		rem := remaining[v-start]
		if rem == 0 {
			fill := buf[bo : bo+uint64(d)]
			for i := range fill {
				fill[i] = ws.NextFrom(v, src)
			}
			rem = d
		}
		chunk[j] = buf[bo+uint64(d-rem)]
		remaining[v-start] = rem - 1
	}
}

// kernChunkRegular is the DS kernel for uniform-degree partitions: the
// walker's edge block is located arithmetically (§4.2's compact storage),
// so the loop body is one bounded draw and one targets load. first is the
// partition's first edge within targets.
func kernChunkRegular(targets []graph.VID, first uint64, k *vpKernel, chunk []graph.VID, src *rng.XorShift1024Star) {
	d := k.deg
	start := uint64(k.start)
	for j, v := range chunk {
		chunk[j] = targets[first+(uint64(v)-start)*uint64(d)+uint64(src.Uint32n(d))]
	}
}

// kernChunkCSR is the mixed-degree DS fallback; targets[0] is edge index
// base.
func kernChunkCSR(offs []uint64, targets []graph.VID, base uint64, chunk []graph.VID, src *rng.XorShift1024Star) {
	for j, v := range chunk {
		off := offs[v]
		d := uint32(offs[v+1] - off)
		if d == 0 {
			continue
		}
		chunk[j] = targets[off-base+uint64(src.Uint32n(d))]
	}
}

// kernChunkWeighted is the weighted DS kernel: one alias draw per walker.
func (c *cohortCtx) kernChunkWeighted(chunk []graph.VID, src *rng.XorShift1024Star) {
	offs := c.e.g.Offsets
	ws := c.weighted
	for j, v := range chunk {
		if offs[v+1] == offs[v] {
			continue
		}
		chunk[j] = ws.NextFrom(v, src)
	}
}

// nextPSFrom consumes one pre-sampled edge of v from st, refilling the
// buffer with d(v) fresh draws when drained — uniform draws, or alias
// draws when weighted: the candidate draw of the rejection samplers on
// PS partitions. Degree must be nonzero.
func (c *cohortCtx) nextPSFrom(st *psState, v graph.VID, src *rng.XorShift1024Star, weighted bool) graph.VID {
	offs := c.e.g.Offsets
	off := offs[v]
	d := uint32(offs[v+1] - off)
	bo := off - st.base
	rem := st.remaining[v-st.start]
	if rem == 0 {
		fill := st.buf[bo : bo+uint64(d)]
		if weighted {
			for i := range fill {
				fill[i] = c.weighted.NextFrom(v, src)
			}
		} else {
			adj := c.e.g.Targets[off : off+uint64(d)]
			for i := range fill {
				fill[i] = adj[src.Uint32n(d)]
			}
		}
		rem = d
	}
	st.remaining[v-st.start] = rem - 1
	return st.buf[bo+uint64(d-rem)]
}

// drawCand draws one first-order candidate for rejection sampling
// (second-order and history walks) through the partition's kernel.
// Callers filter degree < 2. Weighted kinds occur only for history
// walks: New rejects weighted second-order specs.
func (c *cohortCtx) drawCand(k *vpKernel, v graph.VID, src *rng.XorShift1024Star) graph.VID {
	switch k.kind {
	case kernPS, kernPSWeighted:
		return c.nextPSFrom(k.st, v, src, k.kind == kernPSWeighted)
	case kernDSRegular:
		d := k.deg
		return c.e.g.Targets[k.base+(uint64(v)-uint64(k.start))*uint64(d)+uint64(src.Uint32n(d))]
	case kernDSWeighted:
		return c.weighted.NextFrom(v, src)
	default: // kernDSCSR
		off := c.e.g.Offsets[v]
		d := uint32(c.e.g.Offsets[v+1] - off)
		return c.e.g.Targets[off+uint64(src.Uint32n(d))]
	}
}

// kernSecondWalk advances a short second-order segment walker by walker —
// the below-batchThreshold path — with the kernel and rejection bound
// hoisted out of the loop.
func (c *cohortCtx) kernSecondWalk(vpIdx int, seg, prev []graph.VID, src *rng.XorShift1024Star) {
	e := c.e
	k := &c.kern[vpIdx]
	maxW := c.maxWeight()
	offs, targets := e.g.Offsets, e.g.Targets
	for j := range seg {
		v := seg[j]
		d := uint32(offs[v+1] - offs[v])
		var next graph.VID
		switch {
		case d == 0:
			next = v // dead end: stay, predecessor becomes self
		case d == 1:
			// Only continuation: take it unconditionally (rejection could
			// spin forever on custom weight 0).
			next = targets[offs[v]]
		default:
			p := prev[j]
			for {
				x := c.drawCand(k, v, src)
				w := c.secondOrderWeight(p, v, x)
				if w >= maxW || src.Float64()*maxW < w {
					next = x
					break
				}
			}
		}
		prev[j] = v
		seg[j] = next
	}
}

// kernSecondBatched is the batched node2vec sample path (§5.2: "though
// FlashMob again batches such lookups"): it decouples candidate
// generation (confined to the partition, specialized per kernel kind in
// fillCandidates) from the connectivity checks against each walker's
// predecessor, and groups the checks by predecessor so lookups into the
// same out-of-partition adjacency list run back-to-back and hit cache.
// Rejected walkers redraw in subsequent rounds; acceptance probability is
// bounded below by min(1, 1/p, 1/q)/maxW so rounds terminate quickly.
func (c *cohortCtx) kernSecondBatched(vpIdx int, chunk, aux []graph.VID, src *rng.XorShift1024Star, scr *sampleScratch) {
	e := c.e
	k := &c.kern[vpIdx]
	maxW := c.maxWeight()
	n := len(chunk)
	if cap(scr.cand) < n {
		scr.cand = make([]graph.VID, n)
		scr.pending = make([]uint64, 0, n)
	}
	cand := scr.cand[:n]
	pending := scr.pending[:0]
	offs, targets := e.g.Offsets, e.g.Targets
	for i := range chunk {
		v := chunk[i]
		switch uint32(offs[v+1] - offs[v]) {
		case 0:
			aux[i] = v // dead end: stay, predecessor becomes self
			continue
		case 1:
			// Only continuation: take it unconditionally.
			aux[i] = v
			chunk[i] = targets[offs[v]]
			continue
		}
		pending = append(pending, uint64(aux[i])<<32|uint64(uint32(i)))
	}
	// Group connectivity checks by predecessor once up front: consecutive
	// lookups then share the predecessor's adjacency list in cache, and
	// the walk over predecessors is monotone in VID (hubs first, matching
	// the degree-sorted layout). Rejected keys keep their sorted order
	// across rounds, so no re-sort is needed.
	slices.Sort(pending)
	for len(pending) > 0 {
		c.fillCandidates(k, chunk, cand, pending, src)
		next := pending[:0]
		for _, key := range pending {
			i := uint32(key)
			prev, x := graph.VID(key>>32), cand[i]
			w := c.secondOrderWeight(prev, chunk[i], x)
			if w >= maxW || src.Float64()*maxW < w {
				aux[i] = chunk[i]
				chunk[i] = x
			} else {
				next = append(next, key)
			}
		}
		pending = next
	}
	scr.pending = pending[:0]
}

// fillCandidates generates one candidate per pending walker with the
// partition's kernel selection hoisted out of the round loop entirely —
// each case is a tight homogeneous pass.
func (c *cohortCtx) fillCandidates(k *vpKernel, chunk, cand []graph.VID, pending []uint64, src *rng.XorShift1024Star) {
	switch k.kind {
	case kernPS, kernPSWeighted:
		st, weighted := k.st, k.kind == kernPSWeighted
		for _, key := range pending {
			i := uint32(key)
			cand[i] = c.nextPSFrom(st, chunk[i], src, weighted)
		}
	case kernDSRegular:
		d := k.deg
		base, start := k.base, uint64(k.start)
		targets := c.e.g.Targets
		for _, key := range pending {
			i := uint32(key)
			cand[i] = targets[base+(uint64(chunk[i])-start)*uint64(d)+uint64(src.Uint32n(d))]
		}
	default:
		offs, targets := c.e.g.Offsets, c.e.g.Targets
		for _, key := range pending {
			i := uint32(key)
			v := chunk[i]
			off := offs[v]
			cand[i] = targets[off+uint64(src.Uint32n(uint32(offs[v+1]-off)))]
		}
	}
}
