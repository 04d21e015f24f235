package core

import (
	"cmp"
	"fmt"
	"slices"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// Overlay is a frozen delta view over an engine's immutable CSR: the edges
// ingested since the engine was built, grouped per vertex partition. A
// session bound to an overlay samples each walker's next edge uniformly
// over base ∪ delta adjacency — but only in partitions that actually hold
// delta edges, selected by an occupancy bitmask exactly like the mixed-run
// cohort mask, so untouched partitions run the unmodified specialized
// kernels at zero added cost and their draws stay bitwise-identical to the
// base build's. An Overlay is immutable once built and may back any number
// of concurrent sessions.
type Overlay struct {
	// mask has bit vp set when partition vp holds delta edges; the one
	// test every chunk dispatch pays on overlay sessions.
	mask []uint64
	// ext[vp] is partition vp's delta extension (nil when untouched).
	ext []*vpExt
	// edges is the total delta edge count across partitions.
	edges uint64
}

// vpExt is one touched partition's delta adjacency: a CSR fragment over
// the partition's own vertex range. Targets of vertex v (partition-local
// index i = v - start) are targets[off[i]:off[i+1]].
type vpExt struct {
	start   graph.VID
	off     []uint32
	targets []graph.VID
}

// DeltaEdges returns the overlay's total delta edge count (0 for nil).
func (o *Overlay) DeltaEdges() uint64 {
	if o == nil {
		return 0
	}
	return o.edges
}

// TouchedVPs counts partitions holding delta edges (0 for nil).
func (o *Overlay) TouchedVPs() int {
	if o == nil {
		return 0
	}
	n := 0
	for _, e := range o.ext {
		if e != nil {
			n++
		}
	}
	return n
}

// touched reports whether partition vp holds delta edges.
func (o *Overlay) touched(vp int) bool {
	return o.mask[uint(vp)>>6]&(1<<(uint(vp)&63)) != 0
}

// BuildOverlay freezes a batch of delta edges (already in the engine's
// internal degree-sorted numbering, endpoints < |V|) into an overlay over
// e's graph. Edges already present in the base adjacency and duplicates
// within the batch are dropped, so the view is the sorted-unique union a
// compaction of the same edges would build. Weighted builds are rejected:
// overlay sampling is uniform over base ∪ delta, which has no meaning
// against alias tables. Returns nil when every edge dedups away.
func BuildOverlay(e *Engine, edges []graph.Edge) (*Overlay, error) {
	if e.weighted != nil || e.g.Weights != nil {
		return nil, fmt.Errorf("core: overlays require an unweighted build")
	}
	if e.src != nil {
		return nil, fmt.Errorf("core: a streamed engine takes no overlay")
	}
	n := e.g.NumVertices()
	for _, ed := range edges {
		if ed.Src >= n || ed.Dst >= n {
			return nil, fmt.Errorf("core: overlay edge %d→%d outside the build's %d vertices (defer it to compaction)", ed.Src, ed.Dst, n)
		}
	}
	// Order the delta by (source, target): each source's targets form one
	// sorted run, and sources arrive in partition order — so the overlay
	// is assembled in one pass touching only delta sources' adjacency,
	// never the untouched rest of the CSR.
	sorted := make([]graph.Edge, len(edges))
	copy(sorted, edges)
	slices.SortFunc(sorted, func(a, b graph.Edge) int {
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})

	nvp := e.plan.NumVPs()
	ov := &Overlay{mask: make([]uint64, (nvp+63)/64), ext: make([]*vpExt, nvp)}
	lk := e.plan.Lookup()
	curVP := -1
	var ext *vpExt
	flush := func() {
		if ext == nil || len(ext.targets) == 0 {
			ext = nil
			return
		}
		// Touched vertices set off[i+1]; complete the prefix for the
		// untouched ones (monotone fill).
		for i := 1; i < len(ext.off); i++ {
			if ext.off[i] < ext.off[i-1] {
				ext.off[i] = ext.off[i-1]
			}
		}
		ov.ext[curVP] = ext
		ov.mask[uint(curVP)>>6] |= 1 << (uint(curVP) & 63)
		ov.edges += uint64(len(ext.targets))
		ext = nil
	}
	for di := 0; di < len(sorted); {
		v := sorted[di].Src
		run := di
		for run < len(sorted) && sorted[run].Src == v {
			run++
		}
		if vpIdx := lk.VPOf(v); vpIdx != curVP {
			flush()
			curVP = vpIdx
		}
		// Delta targets of v: the run's sorted-unique targets minus v's
		// (sorted-unique) base adjacency, in one linear merge.
		base := e.g.Neighbors(v)
		bi := 0
		last := graph.NoVertex
		for _, ed := range sorted[di:run] {
			t := ed.Dst
			if t == last {
				continue
			}
			for bi < len(base) && base[bi] < t {
				bi++
			}
			if bi < len(base) && base[bi] == t {
				continue
			}
			if ext == nil {
				vp := e.plan.VPs[curVP]
				ext = &vpExt{start: vp.Start, off: make([]uint32, vp.End-vp.Start+1)}
			}
			ext.targets = append(ext.targets, t)
			last = t
		}
		if ext != nil {
			ext.off[v-ext.start+1] = uint32(len(ext.targets))
		}
		di = run
	}
	flush()
	if ov.edges == 0 {
		return nil, nil
	}
	return ov, nil
}

// overlaySpecOK reports whether a walk spec may run against a non-empty
// overlay. Only stateless first-order specs qualify: the overlay sampler
// replaces the per-partition kernel wholesale on touched partitions, and
// second-order/history walks would additionally need HasEdge and candidate
// generation over the extended adjacency. StopProb restarts are fine —
// teleports draw over the (unchanged) vertex space. Weighted specs never
// reach here (BuildOverlay rejects weighted builds).
func overlaySpecOK(sp *algo.Spec) bool {
	return sp.Order == 1 && sp.History == nil && !sp.Weighted
}

// checkOverlaySpec is overlaySpecOK as an error for run admission.
func checkOverlaySpec(sp *algo.Spec) error {
	if !overlaySpecOK(sp) {
		return fmt.Errorf("core: only first-order history-free walks can run against a non-empty delta overlay (freeze-only epoch); compact the deltas first")
	}
	return nil
}

// sampleChunkOverlay advances a first-order chunk in a touched partition:
// one uniform draw over d_base + d_delta per walker, branching into the
// base CSR or the partition's delta extension. It replaces the partition's
// specialized kernel (including PS consumption — pre-sampled buffers were
// filled from base-only adjacency and would under-weight the delta), so a
// touched partition pays the generic two-array path while untouched ones
// keep their kernels.
func (c *cohortCtx) sampleChunkOverlay(ext *vpExt, chunk []graph.VID, src *rng.XorShift1024Star) {
	offs, targets := c.e.g.Offsets, c.e.g.Targets
	for j, v := range chunk {
		off := offs[v]
		dBase := uint32(offs[v+1] - off)
		i := v - ext.start
		elo := ext.off[i]
		dExt := ext.off[i+1] - elo
		d := dBase + dExt
		if d == 0 {
			continue // dead end: walker stays, no draw
		}
		x := src.Uint32n(d)
		if x < dBase {
			chunk[j] = targets[off+uint64(x)]
		} else {
			chunk[j] = ext.targets[elo+(x-dBase)]
		}
	}
}
