// Package walk implements FlashMob's walker-state machinery (§4.3): the
// compact walker arrays W_i (one VID per walker, identity implicit in array
// order), the two-pass counting shuffle that groups walkers by vertex
// partition, the optional inner shuffle level for over-budget groups, and
// the reverse shuffle that restores walker order so the W_i arrays double
// as path history.
//
// One pass has one data path. The forward scatter writes each walker
// straight to its bin cursor: its ~P active destination lines fit in L2
// and its stores don't stall, so the cache already combines them. The
// reverse gather stages walker indices into cache-line-sized per-bin
// buffers (LineStage) and resolves each full line as one sequential
// burst of the bin's slots, turning its scattered demand misses into the
// multi-stream pattern §4.3 relies on to run the stage at memory
// bandwidth. The equivalence tests hold both passes bitwise to a frozen
// scalar reference.
package walk

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"

	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/pool"
)

// Shuffle pass phases, dispatched through the worker pool (or inline) as
// pool.Task phases.
const (
	phaseCount = iota
	phaseScatter
	phaseInner
	phaseGather
)

// InlineCutoff is the walker count below which a step runs inline: the
// shuffle passes, and the engine's sample stage through RunsInline,
// execute every phase on the calling goroutine (pool.Inline) instead of
// handing it to the worker pool. Below it a handoff and its barrier cost
// more than splitting the work saves (the measured crossover is in
// DESIGN.md). A var so tests can move it across their walker counts and
// keep both paths covered.
var InlineCutoff = 4096

// RunsInline reports whether a step over the given number of walkers
// runs inline (see InlineCutoff).
func RunsInline(walkers int) bool { return walkers < InlineCutoff }

// Chunk is one occupied partition after a Forward pass.
type Chunk struct {
	// VP is the partition's index in the plan.
	VP int
	// Lo and Hi delimit the partition's walkers in shuffled order: slots
	// [Lo, Hi), never empty.
	Lo, Hi uint64
}

// binSpan is one occupied outer bin after a Forward pass: its walkers
// sit in slots [lo, hi), and its occupied partitions are chunks[c0:c1].
type binSpan struct {
	bin    int
	lo, hi uint64
	c0, c1 int
}

// Shuffler rearranges walker arrays according to a partition plan. It owns
// the scratch state (per-worker bin counters, offsets, gather staging
// lines, the inner level's packed slot map) so repeated iterations
// allocate nothing.
//
// Every per-pass loop after the count visits only the partitions and
// bins that hold walkers: the count records occupancy in a per-worker
// bitmap (64 partitions per word), and the aggregate turns it into the
// ascending chunk list the cursors, the inner level, the gather drain
// and the callers' sample stages walk. A sparse step therefore costs
// what its walkers cost, not what the plan's partition count costs.
type Shuffler struct {
	plan    *part.Plan
	lk      *part.Lookup
	bins    []part.Bin // plan.Bins()
	pool    *pool.Pool // nil: one worker, every pass inline
	workers int
	// active is the worker count the current pass splits across: workers,
	// or 1 when the pass runs inline. Forward sets it and Reverse reuses
	// it, so both passes replay the same per-worker ranges.
	active int

	numWalkers int
	vpBin      []int32 // partition → outer bin
	// counts[w][vp] is worker w's walker count per VP over its walker
	// range in w's last count pass, and occ[w] has bit vp set exactly
	// where that count is nonzero — so the next pass resets only those.
	counts [][]uint32
	occ    [][]uint64
	union  []uint64 // the active workers' occupancy, OR-ed
	// chunks lists the occupied partitions in ascending order with their
	// slot ranges; spans the occupied bins, extraSpans the indexes into
	// spans of those with the inner shuffle level.
	chunks     []Chunk
	spans      []binSpan
	extraSpans []int
	// cursors[w][bin] replays the placement order in forward and reverse
	// passes; only occupied bins' cursors are meaningful.
	cursors [][]uint64

	// slotFinal maps an occupied extra bin's outer slot p to its final
	// slot, and scratch is the inner level's placement buffer; both cover
	// only the occupied extra bins' slots, packed in bin order, so slot p
	// of extra bin b sits at index p - slotShift[b]. Forward computes the
	// shifts and grows both to the largest packed total so far; every
	// other bin's slots are their own final slots.
	slotFinal []uint32
	scratch   []graph.VID
	slotShift []uint64 // per bin; meaningful for this pass's occupied extra bins
	// vpCur is the inner level's per-partition placement cursor, indexed
	// by partition; extra bins cover disjoint partitions, so they re-sort
	// concurrently without sharing a cell.
	vpCur []uint64

	// gatherStage[w] stages worker w's walker indices for the reverse
	// gather, one line per bin (the staging core shared with
	// internal/shard's cross-shard exchange).
	gatherStage []LineStage[uint32]

	// pprof label contexts applied to workers while a pass runs (nil: no
	// labels). The forward context covers count/scatter/inner phases, the
	// reverse context the gather (see SetPprofLabels).
	fwdCtx, revCtx context.Context

	// pm is the pool accounting every phase submission carries (nil: no
	// accounting). Per-shuffler rather than pool-global so concurrent
	// sessions attribute their pool time to their own registries (see
	// SetPoolMetrics).
	pm *obs.PoolMetrics

	// In-flight pass state, published to workers through the pool's phase
	// barrier.
	curW, curSW, curWNext []graph.VID
	curAux, curAuxSW      [][]graph.VID
	curAuxNext            [][]graph.VID
}

// NewShuffler builds a shuffler for numWalkers walkers under plan whose
// passes split across p's workers (pool.Submit), or run inline on the
// caller when p is nil or the pass is below InlineCutoff (pool.Inline).
// Steady-state Forward/Reverse calls allocate nothing and create no
// goroutines.
func NewShuffler(plan *part.Plan, numWalkers int, p *pool.Pool) (*Shuffler, error) {
	workers := 1
	if p != nil {
		workers = p.Workers()
	}
	if plan == nil {
		return nil, fmt.Errorf("walk: nil plan")
	}
	if numWalkers < 0 {
		return nil, fmt.Errorf("walk: negative walker count")
	}
	nvp := plan.NumVPs()
	words := (nvp + 63) / 64
	bins := plan.Bins()
	s := &Shuffler{
		plan:       plan,
		lk:         plan.Lookup(),
		bins:       bins,
		pool:       p,
		workers:    workers,
		active:     workers,
		numWalkers: numWalkers,
		vpBin:      make([]int32, nvp),
		counts:     make([][]uint32, workers),
		occ:        make([][]uint64, workers),
		union:      make([]uint64, words),
		chunks:     make([]Chunk, 0, nvp),
		spans:      make([]binSpan, 0, len(bins)),
		cursors:    make([][]uint64, workers),
	}
	if s.lk == nil {
		return nil, fmt.Errorf("walk: plan has no lookup (not finalized)")
	}
	for w := 0; w < workers; w++ {
		s.counts[w] = make([]uint32, nvp)
		s.occ[w] = make([]uint64, words)
		s.cursors[w] = make([]uint64, len(bins))
	}
	extraBins := 0
	for bi, b := range bins {
		for vp := b.FirstVP; vp < b.FirstVP+b.NumVPs; vp++ {
			s.vpBin[vp] = int32(bi)
		}
		if b.Extra {
			extraBins++
		}
	}
	if extraBins > 0 {
		s.slotShift = make([]uint64, len(bins))
		s.vpCur = make([]uint64, nvp)
		s.extraSpans = make([]int, 0, extraBins)
	}
	s.gatherStage = make([]LineStage[uint32], workers)
	for w := 0; w < workers; w++ {
		s.gatherStage[w] = NewLineStage[uint32](len(bins), 1)
	}
	return s, nil
}

// Resize re-targets the shuffler at numWalkers walkers. Nothing the
// shuffler owns is sized by the walker count — the inner level's slot map
// follows the occupied extra bins, grown by Forward — so one shuffler
// serves any sequence of walker counts with the same permutations a
// freshly built one would produce.
func (s *Shuffler) Resize(numWalkers int) error {
	if numWalkers < 0 {
		return fmt.Errorf("walk: negative walker count")
	}
	s.numWalkers = numWalkers
	return nil
}

// SetPprofLabels attaches (or, with off, removes) runtime/pprof labels to
// the shuffle passes: workers carry stage=shuffle plus dir=fwd (count,
// scatter, inner phases) or dir=rev (gather) while a pass runs, so CPU
// profiles attribute shuffle time per direction out of the box. Off by
// default; the engine turns it on together with metrics collection.
func (s *Shuffler) SetPprofLabels(on bool) {
	if !on {
		s.fwdCtx, s.revCtx = nil, nil
		return
	}
	s.fwdCtx = pprof.WithLabels(context.Background(), pprof.Labels("stage", "shuffle", "dir", "fwd"))
	s.revCtx = pprof.WithLabels(context.Background(), pprof.Labels("stage", "shuffle", "dir", "rev"))
}

// SetPoolMetrics attaches (or, with nil, detaches) the pool accounting
// the shuffler's phase submissions carry: busy time, barrier wait, and
// run counts land in m. Per-shuffler so the engine can hand each session
// its own metric set; a shuffler without a pool records only the phases
// it runs inline.
func (s *Shuffler) SetPoolMetrics(m *obs.PoolMetrics) { s.pm = m }

// Chunks returns, after a Forward pass, the partitions that hold walkers
// in ascending partition order, each with its shuffled slot range. The
// ranges tile [0, numWalkers) in order; a partition index missing from
// the list has no walkers this step. The slice is the shuffler's own and
// is rewritten by the next Forward.
func (s *Shuffler) Chunks() []Chunk { return s.chunks }

// workerRange splits the walker array contiguously across the pass's
// active workers.
func (s *Shuffler) workerRange(w int) (lo, hi int) {
	per := s.numWalkers / s.active
	rem := s.numWalkers % s.active
	lo = w*per + min(w, rem)
	hi = lo + per
	if w < rem {
		hi++
	}
	return lo, hi
}

// Forward shuffles W into SW so walkers sharing a VP are contiguous and
// VPs appear in vertex order. The aux channels, any number of them, are
// permuted identically into auxSW: per-walker metadata such as node2vec's
// previous vertex (§4.3), or the k-1 predecessor VIDs an order-k walker
// travels with (§2.1's p(v|u,t,s,...)). len(SW) must equal len(W) ==
// numWalkers, and so must every channel's length.
func (s *Shuffler) Forward(w, sw []graph.VID, aux, auxSW [][]graph.VID) error {
	if len(w) != s.numWalkers || len(sw) != s.numWalkers {
		return fmt.Errorf("walk: Forward arrays have %d/%d walkers, want %d", len(w), len(sw), s.numWalkers)
	}
	if err := checkAux(aux, auxSW, s.numWalkers); err != nil {
		return err
	}
	s.curW, s.curSW, s.curAux, s.curAuxSW = w, sw, aux, auxSW
	s.active = s.workers
	if RunsInline(s.numWalkers) {
		s.active = 1
	}

	// Pass 1: count walkers per VP, one worker per contiguous chunk.
	s.run(phaseCount)

	// Aggregate the occupied partitions' slot ranges, then the per-worker
	// bin cursors in (bin-major, worker-minor) order so each worker
	// writes a disjoint, in-order region of every bin.
	s.aggregate()
	s.rebuildCursors()

	// Pass 2: place. Within a bin, walkers keep scan order (outer level
	// shuffles by bin, not by VP — the multi-stream access pattern of
	// §4.3).
	s.run(phaseScatter)

	// Inner level: occupied extra-shuffle bins get re-ordered by VP
	// within their outer region, recording the slot mapping for the
	// reverse pass. The bins have disjoint slot ranges and disjoint
	// windows of the packed slot map, so they re-sort in parallel.
	if len(s.extraSpans) > 0 {
		s.packExtraSlots()
		s.run(phaseInner)
	}
	s.curW, s.curSW, s.curAux, s.curAuxSW = nil, nil, nil, nil
	return nil
}

// aggregate folds the active workers' counts into the chunk list and the
// occupied-bin spans, visiting only the partitions some worker counted a
// walker in.
func (s *Shuffler) aggregate() {
	union := s.union
	copy(union, s.occ[0])
	for wk := 1; wk < s.active; wk++ {
		for i, m := range s.occ[wk] {
			union[i] |= m
		}
	}
	bins := s.bins
	chunks, spans, extra := s.chunks[:0], s.spans[:0], s.extraSpans[:0]
	var total uint64
	for i, m := range union {
		for ; m != 0; m &= m - 1 {
			vp := i<<6 + bits.TrailingZeros64(m)
			lo := total
			for wk := 0; wk < s.active; wk++ {
				total += uint64(s.counts[wk][vp])
			}
			chunks = append(chunks, Chunk{VP: vp, Lo: lo, Hi: total})
			b := int(s.vpBin[vp])
			if n := len(spans); n > 0 && spans[n-1].bin == b {
				spans[n-1].hi, spans[n-1].c1 = total, len(chunks)
				continue
			}
			if bins[b].Extra {
				extra = append(extra, len(spans))
			}
			spans = append(spans, binSpan{bin: b, lo: lo, hi: total, c0: len(chunks) - 1, c1: len(chunks)})
		}
	}
	s.chunks, s.spans, s.extraSpans = chunks, spans, extra
}

// packExtraSlots lays the occupied extra bins' slots out back to back in
// the slot map, in bin order, and grows the map and the inner level's
// scratch to hold them.
func (s *Shuffler) packExtraSlots() {
	var packed uint64
	for _, i := range s.extraSpans {
		sp := s.spans[i]
		s.slotShift[sp.bin] = sp.lo - packed
		packed += sp.hi - sp.lo
	}
	if packed > uint64(len(s.slotFinal)) {
		s.slotFinal = make([]uint32, packed)
		s.scratch = make([]graph.VID, packed)
	}
}

// rebuildCursors derives the active workers' cursors for every occupied
// bin from counts, in (bin-major, worker-minor) order.
func (s *Shuffler) rebuildCursors() {
	for _, sp := range s.spans {
		cur := sp.lo
		chunks := s.chunks[sp.c0:sp.c1]
		for wk := 0; wk < s.active; wk++ {
			s.cursors[wk][sp.bin] = cur
			counts := s.counts[wk]
			for _, c := range chunks {
				cur += uint64(counts[c.VP])
			}
		}
	}
}

// Reverse rebuilds walker-order arrays after the sample stage has
// overwritten the shuffled array in place: scanning wOld (the pre-shuffle
// locations) replays the placement cursors, so each walker finds the slot
// its updated location was written to (§4.3 "compact walker state
// storage"). wNext[j] receives walker j's new location, and auxNext[c][j]
// its channel c from auxSW.
func (s *Shuffler) Reverse(wOld, swNew, wNext []graph.VID, auxSW, auxNext [][]graph.VID) error {
	if len(wOld) != s.numWalkers || len(swNew) != s.numWalkers || len(wNext) != s.numWalkers {
		return fmt.Errorf("walk: Reverse arrays sized %d/%d/%d, want %d",
			len(wOld), len(swNew), len(wNext), s.numWalkers)
	}
	if err := checkAux(auxSW, auxNext, s.numWalkers); err != nil {
		return err
	}
	// Rebuild the same per-worker cursors the forward pass used (s.active
	// is still the forward pass's split).
	s.rebuildCursors()
	s.curW, s.curSW, s.curWNext = wOld, swNew, wNext
	s.curAuxSW, s.curAuxNext = auxSW, auxNext
	s.run(phaseGather)
	s.curW, s.curSW, s.curWNext = nil, nil, nil
	s.curAuxSW, s.curAuxNext = nil, nil
	return nil
}

// RunShard dispatches one phase shard; it implements pool.Task.
func (s *Shuffler) RunShard(phase, worker, workers int) {
	switch phase {
	case phaseCount:
		lo, hi := s.workerRange(worker)
		s.countShard(worker, lo, hi)
	case phaseScatter:
		lo, hi := s.workerRange(worker)
		s.scatter(worker, lo, hi)
	case phaseInner:
		for i := worker; i < len(s.extraSpans); i += workers {
			s.innerShuffle(s.spans[s.extraSpans[i]], s.curSW, s.curAuxSW)
		}
	case phaseGather:
		lo, hi := s.workerRange(worker)
		s.gather(worker, lo, hi)
	}
}

// run executes one phase across the pass's active workers: inline on the
// calling goroutine when the pass has one, else on the pool.
func (s *Shuffler) run(phase int) {
	ctx := s.fwdCtx
	if phase == phaseGather {
		ctx = s.revCtx
	}
	if s.active == 1 {
		pool.Inline(s, phase, ctx, s.pm)
		return
	}
	s.pool.Submit(s, phase, ctx, s.pm)
}

// countShard tallies walkers per VP over [lo, hi), recording each
// partition it counts in the worker's occupancy bitmap. The reset clears
// only the counts the worker's previous pass set.
func (s *Shuffler) countShard(worker, lo, hi int) {
	counts, occ := s.counts[worker], s.occ[worker]
	for i, m := range occ {
		for ; m != 0; m &= m - 1 {
			counts[i<<6+bits.TrailingZeros64(m)] = 0
		}
		occ[i] = 0
	}
	lk := s.lk
	w := s.curW
	for j := lo; j < hi; j++ {
		vp := lk.VPOf(w[j])
		counts[vp]++
		occ[vp>>6] |= 1 << (uint(vp) & 63)
	}
}

// scatter is the forward placement: one random write per walker,
// straight to the bin cursor.
func (s *Shuffler) scatter(worker, lo, hi int) {
	lk := s.lk
	cursors := s.cursors[worker]
	w, sw, aux, auxSW := s.curW, s.curSW, s.curAux, s.curAuxSW
	for j := lo; j < hi; j++ {
		b := lk.BinOf(w[j])
		pos := cursors[b]
		cursors[b]++
		sw[pos] = w[j]
		for c := range aux {
			auxSW[c][pos] = aux[c][j]
		}
	}
}

// gather is the batched reverse pass: walker indices stage per bin, and
// each flush reads one sequential burst of the bin's slots instead of
// interleaving single-word reads across every bin stream.
func (s *Shuffler) gather(worker, lo, hi int) {
	lk := s.lk
	cursors := s.cursors[worker]
	idx, fill := s.gatherStage[worker].Buf, s.gatherStage[worker].Fill
	wOld, swNew, wNext := s.curW, s.curSW, s.curWNext
	auxSW, auxNext := s.curAuxSW, s.curAuxNext
	for j := lo; j < hi; j++ {
		b := lk.BinOf(wOld[j])
		base := b * WCEntries
		n := int(fill[b])
		idx[base+n] = uint32(j)
		n++
		if n == WCEntries {
			s.flushGather(b, idx[base:base+WCEntries], cursors, swNew, wNext, auxSW, auxNext)
			n = 0
		}
		fill[b] = uint8(n)
	}
	for _, sp := range s.spans {
		b := sp.bin
		if fill[b] == 0 {
			continue
		}
		base := b * WCEntries
		s.flushGather(b, idx[base:base+int(fill[b])], cursors, swNew, wNext, auxSW, auxNext)
		fill[b] = 0
	}
}

// flushGather resolves one staged burst of walker indices against bin b's
// next slots: an extra bin's through its window of the slot map, any
// other bin's directly.
func (s *Shuffler) flushGather(b int, js []uint32, cursors []uint64, swNew, wNext []graph.VID, auxSW, auxNext [][]graph.VID) {
	pos := cursors[b]
	if !s.bins[b].Extra {
		for i, j := range js {
			p := pos + uint64(i)
			wNext[j] = swNew[p]
			for c := range auxSW {
				auxNext[c][j] = auxSW[c][p]
			}
		}
	} else {
		final := s.slotFinal[pos-s.slotShift[b]:]
		for i, j := range js {
			p := uint64(final[i])
			wNext[j] = swNew[p]
			for c := range auxSW {
				auxNext[c][j] = auxSW[c][p]
			}
		}
	}
	cursors[b] = pos + uint64(len(js))
}

// innerShuffle re-sorts one occupied extra bin's slots of sw by VP index
// (stable) and records their final slots in the bin's window of the slot
// map. Each partition's final range is already its chunk, so the
// placement cursors start at the chunks' Lo with no counting pass.
func (s *Shuffler) innerShuffle(sp binSpan, sw []graph.VID, auxSW [][]graph.VID) {
	lk := s.lk
	vpCur := s.vpCur
	for _, c := range s.chunks[sp.c0:sp.c1] {
		vpCur[c.VP] = c.Lo
	}
	lo, hi := sp.lo, sp.hi
	off := lo - s.slotShift[sp.bin]
	final := s.slotFinal[off : off+hi-lo]
	scratch := s.scratch[off : off+hi-lo]
	// Place into scratch, record final slots.
	for p := lo; p < hi; p++ {
		vp := lk.VPOf(sw[p])
		dst := vpCur[vp]
		vpCur[vp]++
		scratch[dst-lo] = sw[p]
		final[p-lo] = uint32(dst)
	}
	copy(sw[lo:hi], scratch)
	for c := range auxSW {
		// Permute each aux channel with the recorded mapping.
		for i, dst := range final {
			scratch[uint64(dst)-lo] = auxSW[c][lo+uint64(i)]
		}
		copy(auxSW[c][lo:hi], scratch)
	}
}

// checkAux validates paired aux channel sets.
func checkAux(a, b [][]graph.VID, n int) error {
	if len(a) != len(b) {
		return fmt.Errorf("walk: %d aux channels paired with %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != n || len(b[c]) != n {
			return fmt.Errorf("walk: aux channel %d sized %d/%d, want %d", c, len(a[c]), len(b[c]), n)
		}
	}
	return nil
}
