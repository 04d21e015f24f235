package core

import (
	"math"
	"slices"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// This file locks the per-partition sample kernels (kernels.go) to a
// frozen copy of the pre-kernel scalar sample code, the same discipline
// walk/shuffle_equiv_test.go established for the shuffle rewrite: the
// reference below is the per-walker PS/DS/weighted logic copied
// verbatim, and every kernel — first-order, second-order and order-k
// candidate draws alike — must reproduce its outputs bit for bit. (The
// restart and segment harness around the frozen draws — geometric skip,
// batch gating — is implemented identically by reference and kernels.)

// refSampler is the frozen scalar sampler. Its drawing methods
// (drawEdge, refill, nextPS, sampleFirst, sampleSecond, the batched
// second-order rounds, the order-k history path) are verbatim copies of
// the pre-kernel code, interface-typed rng.Source draws and per-walker
// policy re-tests included. It keeps its own PS buffer state so it can
// evolve alongside an engine without sharing mutable state.
type refSampler struct {
	g          *graph.CSR
	spec       algo.Spec
	plan       *part.Plan
	regularDeg []int64
	ps         []*psState
	weighted   *algo.WeightedSampler
}

func newRefSampler(s *Session) *refSampler {
	e := s.e
	r := &refSampler{
		g: e.g, spec: e.spec, plan: e.plan,
		regularDeg: e.regularDeg, weighted: e.weighted,
	}
	r.ps = make([]*psState, len(s.cohorts[0].cx.kern))
	for i, k := range s.cohorts[0].cx.kern {
		st := k.st
		if st == nil {
			continue
		}
		r.ps[i] = &psState{
			start: st.start, base: st.base,
			buf:       make([]graph.VID, len(st.buf)),
			remaining: make([]uint32, len(st.remaining)),
		}
	}
	return r
}

func (r *refSampler) drawEdge(v graph.VID, src rng.Source) graph.VID {
	if r.weighted != nil {
		return r.weighted.Next(v, src)
	}
	adj := r.g.Neighbors(v)
	return adj[rng.Uint32n(src, uint32(len(adj)))]
}

func (r *refSampler) refill(st *psState, v graph.VID, d uint32, src rng.Source) {
	off := r.g.Offsets[v] - st.base
	buf := st.buf[off : off+uint64(d)]
	if r.weighted != nil {
		for k := range buf {
			buf[k] = r.weighted.Next(v, src)
		}
	} else {
		adj := r.g.Neighbors(v)
		for k := range buf {
			buf[k] = adj[rng.Uint32n(src, d)]
		}
	}
	st.remaining[v-st.start] = d
}

func (r *refSampler) nextPS(st *psState, v graph.VID, src rng.Source) graph.VID {
	idx := v - st.start
	d := r.g.Degree(v)
	if st.remaining[idx] == 0 {
		r.refill(st, v, d, src)
	}
	off := r.g.Offsets[v] - st.base
	sample := st.buf[off+uint64(d-st.remaining[idx])]
	st.remaining[idx]--
	return sample
}

func (r *refSampler) sampleFirst(vpIdx int, v graph.VID, src rng.Source) graph.VID {
	if st := r.ps[vpIdx]; st != nil {
		if r.g.Degree(v) == 0 {
			return v
		}
		return r.nextPS(st, v, src)
	}
	if reg := r.regularDeg[vpIdx]; reg >= 0 && r.weighted == nil {
		if reg == 0 {
			return v
		}
		vp := r.plan.VPs[vpIdx]
		base := r.g.Offsets[vp.Start]
		d := uint32(reg)
		return r.g.Targets[base+uint64(v-vp.Start)*uint64(d)+uint64(rng.Uint32n(src, d))]
	}
	if r.g.Degree(v) == 0 {
		return v
	}
	return r.drawEdge(v, src)
}

func (r *refSampler) maxWeight() float64 {
	if tr := r.spec.Custom; tr != nil {
		return tr.MaxWeight
	}
	maxW := 1.0
	if 1/r.spec.P > maxW {
		maxW = 1 / r.spec.P
	}
	if 1/r.spec.Q > maxW {
		maxW = 1 / r.spec.Q
	}
	return maxW
}

func (r *refSampler) secondOrderWeight(prev, cur, x graph.VID) float64 {
	if tr := r.spec.Custom; tr != nil {
		return tr.Weight(r.g, prev, cur, x)
	}
	switch {
	case x == prev:
		return 1 / r.spec.P
	case r.g.HasEdge(prev, x):
		return 1
	default:
		return 1 / r.spec.Q
	}
}

func (r *refSampler) sampleSecond(vpIdx int, v, prev graph.VID, src rng.Source) graph.VID {
	d := r.g.Degree(v)
	if d == 0 {
		return v
	}
	maxW := r.maxWeight()
	if d == 1 {
		return r.g.Neighbors(v)[0]
	}
	st := r.ps[vpIdx]
	for {
		var x graph.VID
		if st != nil {
			x = r.nextPS(st, v, src)
		} else {
			x = r.sampleFirst(vpIdx, v, src)
		}
		w := r.secondOrderWeight(prev, v, x)
		if w >= maxW || rng.Float64(src)*maxW < w {
			return x
		}
	}
}

// sampleVPSecondBatched is the pre-hoist original: note the e.ps[vpIdx]
// re-read per pending walker per round.
func (r *refSampler) sampleVPSecondBatched(vpIdx int, chunk, aux []graph.VID, src rng.Source) {
	maxW := r.maxWeight()
	cand := make([]graph.VID, len(chunk))
	pending := make([]uint64, 0, len(chunk))
	for i := range chunk {
		switch r.g.Degree(chunk[i]) {
		case 0:
			aux[i] = chunk[i]
			continue
		case 1:
			next := r.g.Neighbors(chunk[i])[0]
			aux[i] = chunk[i]
			chunk[i] = next
			continue
		}
		pending = append(pending, uint64(aux[i])<<32|uint64(uint32(i)))
	}
	slices.Sort(pending)
	for len(pending) > 0 {
		for _, key := range pending {
			i := uint32(key)
			if st := r.ps[vpIdx]; st != nil {
				cand[i] = r.nextPS(st, chunk[i], src)
			} else {
				cand[i] = r.sampleFirst(vpIdx, chunk[i], src)
			}
		}
		next := pending[:0]
		for _, key := range pending {
			i := uint32(key)
			prev, x := graph.VID(key>>32), cand[i]
			w := r.secondOrderWeight(prev, chunk[i], x)
			if w >= maxW || rng.Float64(src)*maxW < w {
				aux[i] = chunk[i]
				chunk[i] = x
			} else {
				next = append(next, key)
			}
		}
		pending = next
	}
}

// sampleVPHistory is the frozen order-k path: per-walker candidates from
// sampleFirst, acceptance from the history transition, and a one-slot
// shift of every walker's predecessor window.
func (r *refSampler) sampleVPHistory(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src rng.Source) {
	tr := r.spec.History
	hist := make([]graph.VID, tr.Window)
	for j := range chunk {
		v := chunk[j]
		for ch := 0; ch < tr.Window; ch++ {
			hist[ch] = aux[ch][j]
		}
		var next graph.VID
		switch d := r.g.Degree(v); {
		case d == 0:
			next = v
		case d == 1:
			next = r.g.Neighbors(v)[0]
		default:
			for {
				x := r.sampleFirst(vpIdx, v, src)
				w := tr.Weight(r.g, hist, v, x)
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

// sampleVP mirrors the engine's dispatch harness (history first, then
// restart skip, segment split, batch gating) around the frozen
// per-walker draws.
func (r *refSampler) sampleVP(vpIdx int, chunk []graph.VID, aux [][]graph.VID, src rng.Source) {
	if r.spec.History != nil {
		r.sampleVPHistory(vpIdx, chunk, aux, src)
		return
	}
	if r.spec.StopProb > 0 {
		logq := math.Log1p(-r.spec.StopProb)
		n := r.g.NumVertices()
		order2 := r.spec.Order == 2
		pos := 0
		for pos < len(chunk) {
			gap := math.Log1p(-rng.Float64(src)) / logq
			if gap >= float64(len(chunk)-pos) {
				r.segment(vpIdx, chunk, aux, pos, len(chunk), false, src)
				return
			}
			next := pos + int(gap)
			r.segment(vpIdx, chunk, aux, pos, next, false, src)
			nv := graph.VID(rng.Uint32n(src, n))
			chunk[next] = nv
			if order2 {
				aux[0][next] = nv
			}
			pos = next + 1
		}
		return
	}
	r.segment(vpIdx, chunk, aux, 0, len(chunk), true, src)
}

func (r *refSampler) segment(vpIdx int, chunk []graph.VID, aux [][]graph.VID, lo, hi int, allowBatch bool, src rng.Source) {
	if hi <= lo {
		return
	}
	if r.spec.Order == 2 {
		seg, prev := chunk[lo:hi], aux[0][lo:hi]
		if allowBatch && hi-lo >= batchThreshold {
			r.sampleVPSecondBatched(vpIdx, seg, prev, src)
			return
		}
		for j := range seg {
			v := seg[j]
			next := r.sampleSecond(vpIdx, v, prev[j], src)
			prev[j] = v
			seg[j] = next
		}
		return
	}
	seg := chunk[lo:hi]
	for j := range seg {
		seg[j] = r.sampleFirst(vpIdx, seg[j], src)
	}
}

// weightedTestGraph builds a degree-sorted weighted power-law graph with
// deterministic pseudo-random positive weights.
func weightedTestGraph(t *testing.T, n uint32, seed uint64) *graph.CSR {
	t.Helper()
	dir, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: n, AvgDegree: 6, Alpha: 0.7, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	wsrc := rng.NewXorShift1024Star(seed ^ 0x77)
	var edges []graph.Edge
	for v := uint32(0); v < dir.NumVertices(); v++ {
		for _, w := range dir.Neighbors(v) {
			if v != w {
				edges = append(edges, graph.Edge{
					Src: v, Dst: w, Weight: 0.25 + float32(wsrc.Float64()),
				})
			}
		}
	}
	res, err := graph.Build(edges, graph.BuildOptions{Weighted: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return graph.SortByDegreeDesc(res.Graph).Graph
}

type equivScenario struct {
	name    string
	g       *graph.CSR
	spec    algo.Spec
	planner PlannerKind
}

func equivScenarios(t *testing.T) []equivScenario {
	t.Helper()
	pl := undirectedTestGraph(t, 400, 7)
	wg := weightedTestGraph(t, 300, 11)
	uni, err := gen.UniformDegree(256, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	weighted := algo.DeepWalk()
	weighted.Weighted = true
	pr := algo.PageRankWalk(0.85)
	sa := algo.SelfAvoiding(2, 5, 0.5)
	saWeighted := sa
	saWeighted.Weighted = true
	return []equivScenario{
		{"ps-first-order", pl, algo.DeepWalk(), PlannerUniformPS},
		{"ds-csr-first-order", pl, algo.DeepWalk(), PlannerUniformDS},
		{"ds-regular", uni, algo.DeepWalk(), PlannerUniformDS},
		{"mckp-first-order", pl, algo.DeepWalk(), PlannerMCKP},
		{"node2vec-mckp", pl, algo.Node2Vec(2, 0.5), PlannerMCKP},
		{"node2vec-ps", pl, algo.Node2Vec(0.5, 2), PlannerUniformPS},
		{"weighted-ps", wg, weighted, PlannerUniformPS},
		{"weighted-ds", wg, weighted, PlannerUniformDS},
		{"pagerank-restart", pl, pr, PlannerMCKP},
		{"history-ps", pl, sa, PlannerUniformPS},
		{"history-mckp", pl, sa, PlannerMCKP},
		{"history-weighted-ps", wg, saWeighted, PlannerUniformPS},
		{"history-weighted-ds", wg, saWeighted, PlannerUniformDS},
	}
}

// TestSampleKernelsMatchFrozenScalar drives every partition of every
// scenario, under both kernel templates, through the kernels and the
// frozen reference with identical reseeded streams, and requires bitwise
// identical chunks, predecessors, and (implicitly, via later rounds) PS
// buffer evolution.
func TestSampleKernelsMatchFrozenScalar(t *testing.T) {
	base := Config{Workers: 1, Seed: 3, Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1}}
	for _, sc := range equivScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			cfg := base
			cfg.Planner = sc.planner
			eK := newEngine(t, sc.g, sc.spec, cfg)
			defer eK.Close()
			t.Run("plan", func(t *testing.T) { matchFrozenScalar(t, sc, eK, true) })
			t.Run("sparse", func(t *testing.T) { matchFrozenScalar(t, sc, eK, false) })
		})
	}
}

// matchFrozenScalar drives every partition of eK under the plan's or the
// sparse kernel template, against the frozen reference holding the same
// PS state.
func matchFrozenScalar(t *testing.T, sc equivScenario, eK *Engine, plan bool) {
	sK, err := eK.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sK.Close()
	sK.cohortSlots(1)[0].bindTemplate(sK, &eK.spec, plan)
	// The PS scenarios must exercise PS under the plan's template, and no
	// scenario may under the sparse one.
	hasPS := slices.ContainsFunc(sK.cohorts[0].kern, func(k vpKernel) bool {
		return k.kind == kernPS || k.kind == kernPSWeighted
	})
	if (plan && sc.planner == PlannerUniformPS && !hasPS) || (!plan && hasPS) {
		t.Fatalf("bound PS kernels = %v with plan template = %v", hasPS, plan)
	}
	ref := newRefSampler(sK)

	setup := rng.NewXorShift1024Star(0x5eed)
	srcK := rng.NewXorShift1024Star(0)
	srcR := rng.NewXorShift1024Star(0)
	scrK := newSampleScratch()
	channels := eK.auxChannels()
	n := sc.g.NumVertices()

	for round := 0; round < 3; round++ {
		for vp := 0; vp < eK.plan.NumVPs(); vp++ {
			vpp := eK.plan.VPs[vp]
			span := uint32(vpp.End - vpp.Start)
			if span == 0 {
				continue
			}
			// Sizes straddle batchThreshold so both second-order
			// paths run.
			for _, size := range []int{1, 7, 200} {
				master := make([]graph.VID, size)
				for j := range master {
					master[j] = vpp.Start + graph.VID(setup.Uint32n(span))
				}
				masterAux := make([][]graph.VID, channels)
				for ch := range masterAux {
					masterAux[ch] = make([]graph.VID, size)
					for j := range masterAux[ch] {
						masterAux[ch][j] = graph.VID(setup.Uint32n(n))
					}
				}
				cloneAux := func() [][]graph.VID {
					a := make([][]graph.VID, channels)
					for ch := range a {
						a[ch] = slices.Clone(masterAux[ch])
					}
					return a
				}
				auxEqual := func(a, b [][]graph.VID) bool {
					return slices.EqualFunc(a, b, slices.Equal[[]graph.VID])
				}
				seed := setup.Uint64()

				chunkK := slices.Clone(master)
				auxK := cloneAux()
				srcK.Reseed(seed)
				sK.sampleVPScratch(vp, chunkK, auxK, srcK, scrK)

				chunkR := slices.Clone(master)
				auxR := cloneAux()
				srcR.Reseed(seed)
				ref.sampleVP(vp, chunkR, auxR, srcR)

				if !slices.Equal(chunkK, chunkR) || !auxEqual(auxK, auxR) {
					t.Fatalf("round %d vp %d size %d: kernel path diverged from frozen scalar", round, vp, size)
				}
			}
		}
	}
}

// runRecorded runs the engine with history and metrics on.
func runRecorded(t *testing.T, g *graph.CSR, spec algo.Spec, cfg Config, walkers uint64, steps int) *Result {
	t.Helper()
	cfg.RecordHistory = true
	cfg.Metrics = true
	e := newEngine(t, g, spec, cfg)
	defer e.Close()
	r, err := e.Run(walkers, steps)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func runForHistory(t *testing.T, g *graph.CSR, spec algo.Spec, cfg Config, walkers uint64, steps int) *walk.History {
	t.Helper()
	return runRecorded(t, g, spec, cfg, walkers, steps).History
}

func historiesEqual(a, b *walk.History) bool {
	if a.NumSteps() != b.NumSteps() || a.NumWalkers() != b.NumWalkers() {
		return false
	}
	for i := 0; i < a.NumSteps(); i++ {
		for j := 0; j < a.NumWalkers(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestSampleEngineEquivalenceAcrossWorkers runs full engine pipelines —
// 1/3/8 workers, two seeds — and requires every worker count to
// reproduce the single-worker trajectories exactly.
// Per-work-item RNG reseeding is what makes the worker counts agree:
// streams attach to (episode, step, partition, sub-shard), never to the
// claiming worker.
func TestSampleEngineEquivalenceAcrossWorkers(t *testing.T) {
	for _, sc := range equivScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 42} {
				base := Config{
					Seed: seed, Planner: sc.planner,
					Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
				}
				one := base
				one.Workers = 1
				want := runRecorded(t, sc.g, sc.spec, one, 500, 4)
				if sc.planner == PlannerUniformPS && psSteps(t, want.Report) == 0 {
					t.Fatalf("seed %d: a PS scenario ran no PS kernel walker-steps", seed)
				}
				for _, workers := range []int{3, 8} {
					cfg := base
					cfg.Workers = workers
					if got := runForHistory(t, sc.g, sc.spec, cfg, 500, 4); !historiesEqual(want.History, got) {
						t.Fatalf("seed %d workers %d: trajectories diverged from single-worker run", seed, workers)
					}
				}
			}
		})
	}
}

// TestSampleEquivalenceAcrossEpisodes checks the memory-budgeted episode
// path: same bitwise trajectories regardless of worker count, with the
// walk split into several episodes.
func TestSampleEquivalenceAcrossEpisodes(t *testing.T) {
	g := undirectedTestGraph(t, 300, 9)
	spec := algo.DeepWalk()
	base := Config{
		Seed: 5, MemoryBudget: 150 * 12,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
	one := base
	one.Workers = 1
	want := runForHistory(t, g, spec, one, 400, 3)
	cfg := base
	cfg.Workers = 4
	if got := runForHistory(t, g, spec, cfg, 400, 3); !historiesEqual(want, got) {
		t.Fatal("workers 4: episode trajectories diverged from single-worker run")
	}
}

// TestSampleDeterminismWithSubShards shrinks SubShardSize so oversized-
// chunk splitting actually happens on a test-sized graph, then requires
// every worker count to agree bitwise. (Each
// sub-shard owns its own RNG stream, so trajectories are a function of
// the shard size — what must NOT matter is which worker runs which
// shard, or how many workers there are.)
func TestSampleDeterminismWithSubShards(t *testing.T) {
	g := undirectedTestGraph(t, 400, 13)
	spec := algo.DeepWalk()
	base := Config{
		Seed: 8, Planner: PlannerUniformDS,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}

	defer func(old uint64) { SubShardSize = old }(SubShardSize)
	SubShardSize = 16

	one := base
	one.Workers = 1
	want := runForHistory(t, g, spec, one, 900, 4)
	cfg := base
	cfg.Workers = 4
	if got := runForHistory(t, g, spec, cfg, 900, 4); !historiesEqual(want, got) {
		t.Fatal("workers 4: sub-sharded trajectories diverged from single-worker run")
	}
}

// TestStopProbRestartFrequency checks the geometric-skip restart path's
// distribution: on a directed cycle (every non-restart step moves v to
// v+1), the fraction of transitions that break the cycle pattern must
// match StopProb·(1−1/n) — a restart teleports uniformly and collides
// with the cycle successor with probability 1/n.
func TestStopProbRestartFrequency(t *testing.T) {
	const n = 64
	offs := make([]uint64, n+1)
	tgts := make([]graph.VID, n)
	for v := 0; v < n; v++ {
		offs[v+1] = uint64(v + 1)
		tgts[v] = graph.VID((v + 1) % n)
	}
	g := &graph.CSR{Offsets: offs, Targets: tgts}

	const stop = 0.3
	spec := algo.PageRankWalk(1 - stop)
	cfg := Config{
		Workers: 4, Seed: 17, Planner: PlannerUniformDS,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
	h := runForHistory(t, g, spec, cfg, 40000, 5)
	moved, total := 0, 0
	for i := 0; i+1 < h.NumSteps(); i++ {
		for j := 0; j < h.NumWalkers(); j++ {
			cur, next := h.At(i, j), h.At(i+1, j)
			total++
			if next != (cur+1)%n {
				moved++
			}
		}
	}
	want := stop * (1 - 1.0/n)
	got := float64(moved) / float64(total)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("restart-break fraction %.4f, want ≈%.4f", got, want)
	}
}

// TestDSRegularVsCSRKernels locks the arithmetic-indexing kernel to the
// CSR fallback three ways: bitwise agreement on the same seed (on a
// uniform-degree partition both index the same Targets slot), a
// two-sample chi-square on the final walker positions for different
// seeds, and an MCKP-planned end-to-end run that actually exercises
// kernDSRegular.
func TestDSRegularVsCSRKernels(t *testing.T) {
	g, err := gen.UniformDegree(128, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := algo.DeepWalk()
	cfg := Config{
		Workers: 2, Seed: 31, Planner: PlannerUniformDS, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}

	run := func(seed uint64, forceCSR bool) *walk.History {
		c := cfg
		c.Seed = seed
		e := newEngine(t, g, spec, c)
		defer e.Close()
		if forceCSR {
			for i := range e.regularDeg {
				e.regularDeg[i] = -1
			}
			e.buildKernels()
			for i := range e.kern {
				// A uniform-DS plan has no PS partitions, so every kernel
				// must fall back to CSR.
				if e.kern[i].kind != kernDSCSR {
					t.Fatalf("vp %d: expected kernDSCSR after forcing, got %d", i, e.kern[i].kind)
				}
			}
		} else {
			sawRegular := false
			for i := range e.kern {
				sawRegular = sawRegular || e.kern[i].kind == kernDSRegular
			}
			if !sawRegular {
				t.Fatal("uniform-degree DS plan produced no kernDSRegular partition")
			}
		}
		r, err := e.Run(20000, 5)
		if err != nil {
			t.Fatal(err)
		}
		return r.History
	}

	// Same seed: bitwise identical.
	if !historiesEqual(run(31, false), run(31, true)) {
		t.Fatal("DS-regular and DS-CSR kernels diverged on the same seed")
	}

	// Different seeds: same final-position distribution. Final positions
	// of distinct walkers are independent, so a two-sample chi-square
	// applies; threshold is the ~0.999 quantile for df=127.
	ha, hb := run(101, false), run(202, true)
	counts := func(h *walk.History) []float64 {
		c := make([]float64, g.NumVertices())
		last := h.NumSteps() - 1
		for j := 0; j < h.NumWalkers(); j++ {
			c[h.At(last, j)]++
		}
		return c
	}
	ca, cb := counts(ha), counts(hb)
	var chi2 float64
	for v := range ca {
		if s := ca[v] + cb[v]; s > 0 {
			d := ca[v] - cb[v]
			chi2 += d * d / s
		}
	}
	if chi2 > 190 {
		t.Errorf("DS-regular vs DS-CSR chi-square %.1f exceeds 190 (df=127)", chi2)
	}
}

// TestMCKPPlanExercisesRegularKernel requires the default planner to
// produce (and the run to use) at least one arithmetic-indexing DS
// partition on a power-law graph — the tail of a degree-sorted graph is
// exactly where uniform-degree DS partitions appear.
func TestMCKPPlanExercisesRegularKernel(t *testing.T) {
	g := undirectedTestGraph(t, 5000, 21)
	e := newEngine(t, g, algo.DeepWalk(), Config{
		Workers: 2, Seed: 3, Planner: PlannerMCKP,
	})
	defer e.Close()
	var regular []int
	for i := range e.kern {
		if e.kern[i].kind == kernDSRegular {
			regular = append(regular, i)
		}
	}
	if len(regular) == 0 {
		t.Fatal("MCKP plan produced no kernDSRegular partition on a power-law graph")
	}
	r, err := e.Run(20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, vp := range regular {
		steps += r.VPSteps[vp]
	}
	if steps == 0 {
		t.Fatal("no walker-steps landed in kernDSRegular partitions")
	}
}
