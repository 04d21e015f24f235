package walk

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/rng"
)

// refShuffler is the pre-write-combining reference implementation: the
// scalar two-pass counting shuffle exactly as shipped before the staged
// data path, with the per-worker ranges emulated sequentially (the
// placement math is identical, so the result is bitwise what the old
// goroutine waves produced).
type refShuffler struct {
	plan       *part.Plan
	workers    int
	numWalkers int
	vpStart    []uint64
	binStart   []uint64
	counts     [][]uint32
	cursors    [][]uint64
	slotFinal  []uint32
	scratch    []graph.VID
	hasExtra   bool
}

func newRefShuffler(plan *part.Plan, numWalkers, workers int) *refShuffler {
	if workers <= 0 {
		workers = 1
	}
	if workers > numWalkers && numWalkers > 0 {
		workers = numWalkers
	}
	s := &refShuffler{
		plan:       plan,
		workers:    workers,
		numWalkers: numWalkers,
		vpStart:    make([]uint64, plan.NumVPs()+1),
		binStart:   make([]uint64, len(plan.Bins())+1),
		counts:     make([][]uint32, workers),
		cursors:    make([][]uint64, workers),
	}
	for w := 0; w < workers; w++ {
		s.counts[w] = make([]uint32, plan.NumVPs())
		s.cursors[w] = make([]uint64, len(plan.Bins()))
	}
	for _, b := range plan.Bins() {
		if b.Extra {
			s.hasExtra = true
		}
	}
	if s.hasExtra {
		s.slotFinal = make([]uint32, numWalkers)
		s.scratch = make([]graph.VID, numWalkers)
	}
	return s
}

func (s *refShuffler) workerRange(w int) (lo, hi int) {
	per := s.numWalkers / s.workers
	rem := s.numWalkers % s.workers
	lo = w*per + min(w, rem)
	hi = lo + per
	if w < rem {
		hi++
	}
	return lo, hi
}

func (s *refShuffler) forward(w, sw []graph.VID, aux, auxSW [][]graph.VID) {
	plan := s.plan
	for wk := 0; wk < s.workers; wk++ {
		lo, hi := s.workerRange(wk)
		counts := s.counts[wk]
		for i := range counts {
			counts[i] = 0
		}
		for j := lo; j < hi; j++ {
			counts[plan.VPOf(w[j])]++
		}
	}
	var total uint64
	for vp := 0; vp < plan.NumVPs(); vp++ {
		s.vpStart[vp] = total
		for wk := 0; wk < s.workers; wk++ {
			total += uint64(s.counts[wk][vp])
		}
	}
	s.vpStart[plan.NumVPs()] = total
	bins := plan.Bins()
	for bi, b := range bins {
		s.binStart[bi] = s.vpStart[b.FirstVP]
		s.binStart[bi+1] = s.vpStart[b.FirstVP+b.NumVPs]
	}
	for bi, b := range bins {
		cur := s.binStart[bi]
		for wk := 0; wk < s.workers; wk++ {
			s.cursors[wk][bi] = cur
			for vp := b.FirstVP; vp < b.FirstVP+b.NumVPs; vp++ {
				cur += uint64(s.counts[wk][vp])
			}
		}
	}
	for wk := 0; wk < s.workers; wk++ {
		lo, hi := s.workerRange(wk)
		cursors := s.cursors[wk]
		for j := lo; j < hi; j++ {
			b := plan.BinOf(w[j])
			pos := cursors[b]
			cursors[b]++
			sw[pos] = w[j]
			for c := range aux {
				auxSW[c][pos] = aux[c][j]
			}
		}
	}
	if s.hasExtra {
		for i := range s.slotFinal {
			s.slotFinal[i] = uint32(i)
		}
		for bi, b := range bins {
			if !b.Extra {
				continue
			}
			s.innerShuffle(b, s.binStart[bi], s.binStart[bi+1], sw, auxSW)
		}
	}
}

func (s *refShuffler) innerShuffle(b part.Bin, lo, hi uint64, sw []graph.VID, auxSW [][]graph.VID) {
	plan := s.plan
	vpCount := make([]uint64, b.NumVPs)
	for p := lo; p < hi; p++ {
		vpCount[plan.VPOf(sw[p])-b.FirstVP]++
	}
	vpCur := make([]uint64, b.NumVPs)
	var acc uint64
	for i := range vpCount {
		vpCur[i] = lo + acc
		acc += vpCount[i]
	}
	for p := lo; p < hi; p++ {
		vi := plan.VPOf(sw[p]) - b.FirstVP
		dst := vpCur[vi]
		vpCur[vi]++
		s.scratch[dst] = sw[p]
		s.slotFinal[p] = uint32(dst)
	}
	copy(sw[lo:hi], s.scratch[lo:hi])
	for c := range auxSW {
		for p := lo; p < hi; p++ {
			s.scratch[s.slotFinal[p]] = auxSW[c][p]
		}
		copy(auxSW[c][lo:hi], s.scratch[lo:hi])
	}
}

func (s *refShuffler) reverse(wOld, swNew, wNext []graph.VID, auxSW, auxNext [][]graph.VID) {
	plan := s.plan
	bins := plan.Bins()
	for bi := range bins {
		cur := s.binStart[bi]
		b := bins[bi]
		for wk := 0; wk < s.workers; wk++ {
			s.cursors[wk][bi] = cur
			for vp := b.FirstVP; vp < b.FirstVP+b.NumVPs; vp++ {
				cur += uint64(s.counts[wk][vp])
			}
		}
	}
	for wk := 0; wk < s.workers; wk++ {
		lo, hi := s.workerRange(wk)
		cursors := s.cursors[wk]
		for j := lo; j < hi; j++ {
			b := plan.BinOf(wOld[j])
			pos := cursors[b]
			cursors[b]++
			if s.hasExtra {
				pos = uint64(s.slotFinal[pos])
			}
			wNext[j] = swNew[pos]
			for c := range auxSW {
				auxNext[c][j] = auxSW[c][pos]
			}
		}
	}
}

// makeAux builds channel-count aux arrays with unique payloads.
func makeAux(channels, n int) (aux, auxSW, auxNext [][]graph.VID) {
	for c := 0; c < channels; c++ {
		a := make([]graph.VID, n)
		for j := range a {
			a[j] = graph.VID(uint32(j*channels + c + 1))
		}
		aux = append(aux, a)
		auxSW = append(auxSW, make([]graph.VID, n))
		auxNext = append(auxNext, make([]graph.VID, n))
	}
	return
}

func cloneChannels(a [][]graph.VID) [][]graph.VID {
	out := make([][]graph.VID, len(a))
	for c := range a {
		out[c] = append([]graph.VID(nil), a[c]...)
	}
	return out
}

// refStep is the frozen reference's outcome for one shuffle step: the
// forward pass's arrays and per-partition offsets, and the reverse
// pass's outputs after a fake sample step (swMut) rewrote every slot.
type refStep struct {
	sw, swMut, next []graph.VID
	auxSW, auxNext  [][]graph.VID
	vpStart         []uint64
}

// runRef runs one reference step over w and its aux channels.
func runRef(plan *part.Plan, w []graph.VID, aux [][]graph.VID, workers int) refStep {
	n := len(w)
	ref := newRefShuffler(plan, n, workers)
	r := refStep{sw: make([]graph.VID, n), next: make([]graph.VID, n)}
	_, r.auxSW, r.auxNext = makeAux(len(aux), n)
	ref.forward(w, r.sw, aux, r.auxSW)
	r.swMut = append([]graph.VID(nil), r.sw...)
	for p := range r.swMut {
		r.swMut[p] = r.swMut[p]*3 + 1
	}
	ref.reverse(w, r.swMut, r.next, cloneChannels(r.auxSW), r.auxNext)
	r.vpStart = ref.vpStart
	return r
}

// checkStep runs one Forward/Reverse step of s over w and requires every
// array and the chunk list to match the reference bitwise.
func checkStep(t *testing.T, name string, s *Shuffler, w []graph.VID, aux [][]graph.VID, ref refStep) {
	t.Helper()
	n := len(w)
	sw := make([]graph.VID, n)
	next := make([]graph.VID, n)
	_, auxSW, auxNext := makeAux(len(aux), n)
	if err := s.Forward(w, sw, aux, auxSW); err != nil {
		t.Fatal(err)
	}
	for i := range ref.sw {
		if sw[i] != ref.sw[i] {
			t.Fatalf("%s: sw[%d] = %d, reference %d", name, i, sw[i], ref.sw[i])
		}
	}
	checkChunksMatch(t, s.Chunks(), ref.vpStart)
	for c := range auxSW {
		for i := range auxSW[c] {
			if auxSW[c][i] != ref.auxSW[c][i] {
				t.Fatalf("%s: auxSW[%d][%d] = %d, reference %d", name, c, i, auxSW[c][i], ref.auxSW[c][i])
			}
		}
	}
	auxMut := cloneChannels(auxSW)
	if err := s.Reverse(w, ref.swMut, next, auxMut, auxNext); err != nil {
		t.Fatal(err)
	}
	for i := range ref.next {
		if next[i] != ref.next[i] {
			t.Fatalf("%s: wNext[%d] = %d, reference %d", name, i, next[i], ref.next[i])
		}
	}
	for c := range auxNext {
		for i := range auxNext[c] {
			if auxNext[c][i] != ref.auxNext[c][i] {
				t.Fatalf("%s: auxNext[%d][%d] = %d, reference %d", name, c, i, auxNext[c][i], ref.auxNext[c][i])
			}
		}
	}
}

// withInlineCutoff sets InlineCutoff for the rest of the test.
func withInlineCutoff(t *testing.T, n int) {
	old := InlineCutoff
	InlineCutoff = n
	t.Cleanup(func() { InlineCutoff = old })
}

// onBothPaths runs body as subtests "pooled" and "inline": with the
// cutoff at 0 every pass hands its phases to the workers, above any
// walker count every pass runs inline on the caller.
func onBothPaths(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name   string
		cutoff int
	}{{"pooled", 0}, {"inline", math.MaxInt}} {
		t.Run(path.name, func(t *testing.T) {
			withInlineCutoff(t, path.cutoff)
			body(t)
		})
	}
}

// TestWriteCombiningEquivalence locks the shuffle — direct scatter,
// write-combined gather — to the frozen scalar reference: for every
// combination of plan shape, seed, worker count, aux channel count, and
// pooled-vs-inline phases, the forward shuffle must produce
// bitwise-identical sw/aux arrays and partition ranges, and the reverse
// pass bitwise-identical wNext/auxNext.
func TestWriteCombiningEquivalence(t *testing.T) {
	type planShape struct {
		v               uint32
		groupLog, vpLog uint
		extra           bool
	}
	shapes := []planShape{
		{256, 6, 4, false},
		{256, 6, 4, true},      // extra-shuffle bins
		{512, 7, 3, true},      // wide inner bins
		{100, 5, 2, true},      // ragged final group
		{1 << 10, 8, 8, false}, // one VP per group
	}
	for _, shape := range shapes {
		for _, seed := range []uint64{1, 2, 3} {
			for _, workers := range []int{1, 2, 3, 8} {
				for _, channels := range []int{0, 1, 3} {
					name := fmt.Sprintf("v%d-g%d-p%d-extra%v/seed%d/w%d/ch%d",
						shape.v, shape.groupLog, shape.vpLog, shape.extra, seed, workers, channels)
					t.Run(name, func(t *testing.T) {
						plan := testPlan(t, shape.v, shape.groupLog, shape.vpLog, shape.extra)
						n := 3000 + int(seed)*7
						w := randomWalkers(n, shape.v, seed)
						aux, _, _ := makeAux(channels, n)
						ref := runRef(plan, w, aux, workers)
						p := testPool(t, workers)
						onBothPaths(t, func(t *testing.T) {
							s, err := NewShuffler(plan, n, p)
							if err != nil {
								t.Fatal(err)
							}
							checkStep(t, "shuffle", s, w, aux, ref)
						})
					})
				}
			}
		}
	}
}

// confinedWalkers places n walkers uniformly over the vertices of the
// given partitions only.
func confinedWalkers(plan *part.Plan, vps []int, n int, seed uint64) []graph.VID {
	src := rng.NewXorShift64Star(seed)
	w := make([]graph.VID, n)
	for i := range w {
		vp := plan.VPs[vps[rng.Uint32n(src, uint32(len(vps)))]]
		w[i] = vp.Start + graph.VID(rng.Uint32n(src, vp.End-vp.Start))
	}
	return w
}

// TestSparseShuffleEquivalence drives one shuffler through consecutive
// steps whose walkers sit in a few partitions of a plan with thousands
// of partitions and extra-shuffle bins, the occupied set changing every
// step, so a count, cursor, chunk or staging fill left behind by the
// previous step would corrupt the next. Walker counts cross the inline
// cutoff in both directions on the same shuffler (resized through
// Resize), so pooled steps also follow inline ones whose counts only
// worker 0 refreshed, and the last step grows past the count the
// shuffler was built for, which regrows its inner-level slot maps.
// Every step must match the frozen reference, a shuffler built fresh
// for that step.
func TestSparseShuffleEquivalence(t *testing.T) {
	const cutoff = 64
	withInlineCutoff(t, cutoff)
	// 4096 partitions of 4 vertices in groups of 256; every other group
	// is one extra-shuffle bin of 64 partitions.
	plan := testPlan(t, 1<<14, 8, 2, true)
	if plan.NumVPs() < 4000 {
		t.Fatalf("plan has %d partitions, want thousands", plan.NumVPs())
	}
	steps := []struct {
		n   int
		vps []int
	}{
		{900, []int{5, 63, 64, 4095}},   // word boundaries of the occupancy bitmap
		{40, []int{70, 71, 200}},        // inline, inside one extra bin and one plain bin
		{cutoff, []int{5, 3000}},        // exactly at the cutoff: pooled
		{cutoff - 1, []int{5, 3000}},    // one below: inline
		{3, []int{1000}},                // a single partition
		{700, []int{0, 1, 2, 128, 129}}, // adjacent partitions, two bins
		{1, []int{4095}},
		{900, []int{64, 65, 66, 67, 68, 69, 70, 71, 72, 2048, 2049}},
		{3000, []int{5, 63, 64, 70, 127, 200, 2048, 4095}}, // past the built 900
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, channels := range []int{0, 2} {
			t.Run(fmt.Sprintf("w%d/ch%d", workers, channels), func(t *testing.T) {
				s, err := NewShuffler(plan, steps[0].n, testPool(t, workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range steps {
					w := confinedWalkers(plan, st.vps, st.n, uint64(i+1))
					aux, _, _ := makeAux(channels, st.n)
					if err := s.Resize(st.n); err != nil {
						t.Fatal(err)
					}
					checkStep(t, fmt.Sprintf("step%d", i), s, w, aux, runRef(plan, w, aux, workers))
				}
			})
		}
	}
}

// TestExtraBinSlotMapPooled drives one pooled shuffler — every step at
// or above InlineCutoff, so the inner level's extra bins re-sort in
// parallel on the workers — through walker counts that Resize grows and
// shrinks, with walkers split between extra-shuffle bins and plain ones.
// Every step must match the frozen reference, and the packed slot map
// must never hold more entries than the most walkers any step so far
// placed in extra bins: it covers those bins' slots only, never the
// walker array.
func TestExtraBinSlotMapPooled(t *testing.T) {
	// 1,024 partitions of 4 vertices in groups of 64 partitions; the
	// even groups (partitions [0, 64), [128, 192), …) are extra bins.
	plan := testPlan(t, 1<<12, 8, 2, true)
	steps := []struct {
		n   int
		vps []int
	}{
		{5000, []int{0, 1, 2, 64, 65, 128}},
		{9000, []int{3, 70, 71, 72, 130, 1000}}, // grow
		{InlineCutoff, []int{64, 65, 200}},      // shrink, no extra bin occupied
		{12000, []int{0, 130, 300, 1000}},       // grow past every earlier count
		{InlineCutoff + 4, []int{5, 64}},        // shrink
	}
	for _, workers := range []int{2, 3, 8} {
		for _, channels := range []int{0, 2} {
			t.Run(fmt.Sprintf("w%d/ch%d", workers, channels), func(t *testing.T) {
				s, err := NewShuffler(plan, steps[0].n, testPool(t, workers))
				if err != nil {
					t.Fatal(err)
				}
				bins := plan.Bins()
				most := 0
				for i, st := range steps {
					if RunsInline(st.n) {
						t.Fatalf("step %d: %d walkers run inline", i, st.n)
					}
					w := confinedWalkers(plan, st.vps, st.n, uint64(i+1))
					extra := 0
					for _, v := range w {
						if bins[plan.BinOf(v)].Extra {
							extra++
						}
					}
					most = max(most, extra)
					aux, _, _ := makeAux(channels, st.n)
					if err := s.Resize(st.n); err != nil {
						t.Fatal(err)
					}
					checkStep(t, fmt.Sprintf("step%d", i), s, w, aux, runRef(plan, w, aux, workers))
					if len(s.slotFinal) > most || len(s.scratch) != len(s.slotFinal) {
						t.Fatalf("step %d: slot map %d / scratch %d entries, but at most %d walkers sat in extra bins",
							i, len(s.slotFinal), len(s.scratch), most)
					}
				}
				if most == 0 || most >= steps[3].n {
					t.Fatalf("extra bins held at most %d of up to %d walkers: the steps must split walkers between extra and plain bins", most, steps[3].n)
				}
			})
		}
	}
}

// TestShuffleSteadyStateAllocs verifies the acceptance criterion that
// steady-state shuffle steps allocate nothing: after one warm-up step,
// Forward+Reverse on a pooled
// shuffler must be allocation-free and keep the goroutine count flat,
// including across extra-shuffle bins and aux channels, whether the
// step's phases go to the workers or run inline.
func TestShuffleSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		extra    bool
		channels int
	}{
		{"plain", false, 0},
		{"extra-bins", true, 0},
		{"aux", false, 2},
		{"extra-aux", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				plan := testPlan(t, 512, 7, 4, tc.extra)
				const n = 4096
				w := randomWalkers(n, 512, 9)
				s, err := NewShuffler(plan, n, testPool(t, 4))
				if err != nil {
					t.Fatal(err)
				}
				sw := make([]graph.VID, n)
				next := make([]graph.VID, n)
				aux, auxSW, auxNext := makeAux(tc.channels, n)
				step := func() {
					if err := s.Forward(w, sw, aux, auxSW); err != nil {
						t.Fatal(err)
					}
					if err := s.Reverse(w, sw, next, auxSW, auxNext); err != nil {
						t.Fatal(err)
					}
				}
				step() // warm up
				before := settledGoroutines()
				if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
					t.Fatalf("steady-state shuffle step allocates %.1f objects, want 0", allocs)
				}
				if after := runtime.NumGoroutine(); after != before {
					t.Fatalf("goroutine count changed %d → %d across steps", before, after)
				}
			})
		})
	}
}

// settledGoroutines returns the goroutine count once the workers of
// pools closed by earlier tests have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestShuffleParallelRace drives the pooled shuffle with many workers so
// `go test -race` checks the phase-barrier discipline:
// shard ranges, staged flushes, and the parallel inner shuffle must never
// touch a slot concurrently.
func TestShuffleParallelRace(t *testing.T) {
	plan := testPlan(t, 512, 7, 3, true)
	const n = 20000
	w := randomWalkers(n, 512, 11)
	s, err := NewShuffler(plan, n, testPool(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	sw := make([]graph.VID, n)
	next := make([]graph.VID, n)
	aux, auxSW, auxNext := makeAux(2, n)
	for iter := 0; iter < 20; iter++ {
		if err := s.Forward(w, sw, aux, auxSW); err != nil {
			t.Fatal(err)
		}
		if err := s.Reverse(w, sw, next, auxSW, auxNext); err != nil {
			t.Fatal(err)
		}
		checkShuffled(t, plan, w, sw, s.Chunks())
		w, next = next, w
	}
}

// TestShufflerPoolSmallerThanWorkers covers walker counts below the pool
// size: high workers get empty shards and the permutation still matches
// the reference.
func TestShufflerPoolSmallerThanWorkers(t *testing.T) {
	plan := testPlan(t, 128, 5, 3, true)
	p := testPool(t, 8)
	for _, n := range []int{0, 1, 3, 7} {
		w := randomWalkers(n, 128, 13)
		s, err := NewShuffler(plan, n, p)
		if err != nil {
			t.Fatal(err)
		}
		sw := make([]graph.VID, n)
		next := make([]graph.VID, n)
		if err := s.Forward(w, sw, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Reverse(w, sw, next, nil, nil); err != nil {
			t.Fatal(err)
		}
		for j := range w {
			if next[j] != w[j] {
				t.Fatalf("n=%d: walker %d came back as %d, want %d", n, j, next[j], w[j])
			}
		}
	}
}
