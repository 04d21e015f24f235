package core

import (
	"math"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/walk"
)

// onBothPaths runs body as subtests "pooled" and "inline": first with
// walk.InlineCutoff at 0, so every step hands its phases to the worker
// pool, then with it above any walker count, so every step runs inline
// on the calling goroutine. Suites whose walker counts sit on one side
// of the production cutoff use it to keep both paths covered.
func onBothPaths(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name   string
		cutoff int
	}{{"pooled", 0}, {"inline", math.MaxInt}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(old int) { walk.InlineCutoff = old }(walk.InlineCutoff)
			walk.InlineCutoff = path.cutoff
			body(t)
		})
	}
}

// undirectedTestGraph builds a small degree-sorted undirected power-law
// graph (symmetric edges, so the uniform walk's stationary distribution is
// proportional to degree).
func undirectedTestGraph(t testing.TB, n uint32, seed uint64) *graph.CSR {
	t.Helper()
	dir, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: n, AvgDegree: 6, Alpha: 0.7, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for v := uint32(0); v < dir.NumVertices(); v++ {
		for _, w := range dir.Neighbors(v) {
			if v != w {
				edges = append(edges, graph.Edge{Src: v, Dst: w})
			}
		}
	}
	res, err := graph.Build(edges, graph.BuildOptions{Undirected: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return graph.SortByDegreeDesc(res.Graph).Graph
}

func newEngine(t *testing.T, g *graph.CSR, spec algo.Spec, cfg Config) *Engine {
	t.Helper()
	e, err := New(g, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkPathsAreWalks verifies every recorded transition follows a graph
// edge (or stays on a dead end).
func checkPathsAreWalks(t *testing.T, g *graph.CSR, h interface {
	NumSteps() int
	NumWalkers() int
	At(i, j int) graph.VID
}) {
	t.Helper()
	for j := 0; j < h.NumWalkers(); j++ {
		for i := 0; i+1 < h.NumSteps(); i++ {
			u, v := h.At(i, j), h.At(i+1, j)
			if u == v && g.Degree(u) == 0 {
				continue // dead end stays
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("walker %d step %d: %d→%d is not an edge", j, i, u, v)
			}
		}
	}
}

func TestEngineProducesValidWalks(t *testing.T) {
	g := undirectedTestGraph(t, 2000, 1)
	for _, workers := range []int{1, 4} {
		e := newEngine(t, g, algo.DeepWalk(), Config{
			Workers: workers, Seed: 7, RecordHistory: true,
			Part: part.Config{TargetGroups: 16},
		})
		res, err := e.Run(3000, 12)
		if err != nil {
			t.Fatal(err)
		}
		if res.History == nil || res.History.NumSteps() != 13 {
			t.Fatalf("workers=%d: history has %d steps, want 13", workers, res.History.NumSteps())
		}
		checkPathsAreWalks(t, g, res.History)
	}
}

func TestEngineStationaryDistribution(t *testing.T) {
	// Uniform walk on an undirected graph converges to π(v) ∝ deg(v).
	g := undirectedTestGraph(t, 300, 2)
	e := newEngine(t, g, algo.DeepWalk(), Config{
		Workers: 2, Seed: 3, RecordHistory: true, Init: InitEdgeUniform,
		Part: part.Config{TargetGroups: 8},
	})
	res, err := e.Run(60000, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	// Use only the final position (already stationary under edge-uniform
	// init).
	counts := make([]float64, g.NumVertices())
	last := h.NumSteps() - 1
	for j := 0; j < h.NumWalkers(); j++ {
		counts[h.At(last, j)]++
	}
	total := float64(h.NumWalkers())
	sumDeg := float64(g.NumEdges())
	// Check the head vertices (highest degree → most visits → tight
	// relative error).
	for v := uint32(0); v < 10; v++ {
		want := float64(g.Degree(v)) / sumDeg
		got := counts[v] / total
		if want > 0.005 && math.Abs(got-want) > 0.25*want {
			t.Errorf("vertex %d: visit share %.4f, stationary %.4f", v, got, want)
		}
	}
}

func TestEngineFirstStepUniform(t *testing.T) {
	// All walkers start at vertex 0; after one step they must be uniform
	// over its neighbours — exercising the PS path (vertex 0 has the
	// highest degree, so with the MCKP plan it lands in a PS partition on
	// skewed graphs, and regardless this checks distributional
	// correctness end to end).
	g := undirectedTestGraph(t, 12, 4)
	plan, err := part.PlanUniform(g, part.Config{MaxBins: 64}, profile.PS)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, algo.DeepWalk(), Config{
		Workers: 1, Seed: 5, RecordHistory: true, Plan: plan,
	})
	const walkers = 40000
	// Sequential init starting everything at 0: use a one-vertex "mod"
	// trick — InitVertexSequential spreads walkers, so instead run with
	// custom init by exploiting InitVertexSequential on a single-vertex
	// range: simpler to just run and check conditional transitions.
	res, err := e.Run(walkers, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	// Conditional check: group transitions by source vertex; for sources
	// with many observations, targets must be ≈ uniform over neighbours.
	trans := map[graph.VID]map[graph.VID]int{}
	for j := 0; j < h.NumWalkers(); j++ {
		u, v := h.At(0, j), h.At(1, j)
		if trans[u] == nil {
			trans[u] = map[graph.VID]int{}
		}
		trans[u][v]++
	}
	checked := 0
	for u, m := range trans {
		var n int
		for _, c := range m {
			n += c
		}
		if n < 2000 || g.Degree(u) == 0 {
			continue
		}
		d := float64(g.Degree(u))
		for v, c := range m {
			if !g.HasEdge(u, v) {
				t.Fatalf("transition %d→%d is not an edge", u, v)
			}
			got := float64(c) / float64(n)
			want := 1 / d
			if math.Abs(got-want) > 0.35*want+0.01 {
				t.Errorf("P(%d→%d) = %.4f, want %.4f", u, v, got, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no source vertex had enough observations")
	}
}

func TestEnginePSAndDSAgree(t *testing.T) {
	// The two policies implement the same process: visit distributions
	// after several steps must agree within sampling noise.
	g := undirectedTestGraph(t, 400, 6)
	countsFor := func(planner PlannerKind) []uint64 {
		e := newEngine(t, g, algo.DeepWalk(), Config{
			Workers: 1, Seed: 9, RecordHistory: true, Planner: planner,
			Init: InitEdgeUniform, Part: part.Config{TargetGroups: 8},
		})
		res, err := e.Run(50000, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res.History.VisitCounts(g.NumVertices())
	}
	ps := countsFor(PlannerUniformPS)
	ds := countsFor(PlannerUniformDS)
	var totPS, totDS float64
	for v := range ps {
		totPS += float64(ps[v])
		totDS += float64(ds[v])
	}
	for v := uint32(0); v < 20; v++ {
		a := float64(ps[v]) / totPS
		b := float64(ds[v]) / totDS
		if a > 0.004 && math.Abs(a-b) > 0.2*a {
			t.Errorf("vertex %d: PS share %.4f vs DS share %.4f", v, a, b)
		}
	}
}

func TestEngineNode2Vec(t *testing.T) {
	g := undirectedTestGraph(t, 800, 7)
	e := newEngine(t, g, algo.Node2Vec(0.5, 2), Config{
		Workers: 2, Seed: 11, RecordHistory: true,
		Part: part.Config{TargetGroups: 8},
	})
	res, err := e.Run(2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkPathsAreWalks(t, g, res.History)
}

func TestEngineNode2VecReturnBias(t *testing.T) {
	// Small p strongly favours returning to the predecessor; compare
	// return rates between p=0.1 and p=10.
	g := undirectedTestGraph(t, 500, 8)
	rate := func(p float64) float64 {
		e := newEngine(t, g, algo.Node2Vec(p, 1), Config{
			Workers: 1, Seed: 13, RecordHistory: true,
			Part: part.Config{TargetGroups: 8},
		})
		res, err := e.Run(20000, 4)
		if err != nil {
			t.Fatal(err)
		}
		h := res.History
		var returns, moves int
		for j := 0; j < h.NumWalkers(); j++ {
			for i := 2; i < h.NumSteps(); i++ {
				if h.At(i, j) == h.At(i-2, j) {
					returns++
				}
				moves++
			}
		}
		return float64(returns) / float64(moves)
	}
	low, high := rate(10), rate(0.1)
	if high < low*1.5 {
		t.Errorf("return bias missing: p=0.1 rate %.3f vs p=10 rate %.3f", high, low)
	}
}

func TestEngineEpisodes(t *testing.T) {
	g := undirectedTestGraph(t, 300, 9)
	e := newEngine(t, g, algo.DeepWalk(), Config{
		Workers: 1, Seed: 15, MemoryBudget: 1200, // 100 walkers/episode
		Part: part.Config{TargetGroups: 8},
	})
	res, err := e.Run(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 10 {
		t.Errorf("episodes = %d, want 10", res.Episodes)
	}
	if res.Walkers != 1000 || res.TotalSteps != 5000 {
		t.Errorf("walkers = %d totalSteps = %d", res.Walkers, res.TotalSteps)
	}
}

func TestEngineVPStepsAccounting(t *testing.T) {
	g := undirectedTestGraph(t, 600, 10)
	e := newEngine(t, g, algo.DeepWalk(), Config{
		Workers: 3, Seed: 17, Part: part.Config{TargetGroups: 8},
	})
	res, err := e.Run(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, s := range res.VPSteps {
		sum += s
	}
	if sum != res.TotalSteps {
		t.Errorf("VPSteps sum %d != TotalSteps %d", sum, res.TotalSteps)
	}
	if res.PerStepNS() <= 0 {
		t.Error("PerStepNS not positive")
	}
	if res.SampleTime <= 0 || res.ShuffleTime <= 0 {
		t.Error("stage times not positive")
	}
}

func TestEngineRestartWalk(t *testing.T) {
	// PageRank-style walk: visit frequency must match power iteration.
	g := undirectedTestGraph(t, 200, 11)
	damping := 0.85
	e := newEngine(t, g, algo.PageRankWalk(damping), Config{
		Workers: 2, Seed: 19, RecordHistory: true, Init: InitVertexUniform,
		Part: part.Config{TargetGroups: 8},
	})
	res, err := e.Run(20000, 40)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.History.VisitCounts(g.NumVertices())
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	// Power iteration reference.
	n := int(g.NumVertices())
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for iter := 0; iter < 60; iter++ {
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for u := 0; u < n; u++ {
			adj := g.Neighbors(uint32(u))
			if len(adj) == 0 {
				next[u] += damping * pr[u] // dead end stays (engine semantics)
				continue
			}
			share := damping * pr[u] / float64(len(adj))
			for _, v := range adj {
				next[v] += share
			}
		}
		pr, next = next, pr
	}
	for v := 0; v < 15; v++ {
		got := float64(counts[v]) / total
		if pr[v] > 0.004 && math.Abs(got-pr[v]) > 0.3*pr[v] {
			t.Errorf("vertex %d: walk PR %.4f vs power iteration %.4f", v, got, pr[v])
		}
	}
}

func TestEngineWeightedWalk(t *testing.T) {
	// Two-vertex weighted graph: heavy edge taken ~75% of the time.
	res, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, Weight: 3}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 0, Weight: 1},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.SortByDegreeDesc(res.Graph).Graph
	spec := algo.DeepWalk()
	spec.Weighted = true
	e := newEngine(t, g, spec, Config{
		Workers: 1, Seed: 21, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	})
	r, err := e.Run(30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := r.History
	// Count transitions out of the (sorted) vertex that has 2 neighbours.
	var hub graph.VID
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 2 {
			hub = v
		}
	}
	heavy, totalOut := 0, 0
	wts := g.EdgeWeights(hub)
	adj := g.Neighbors(hub)
	heavyTarget := adj[0]
	if wts[1] > wts[0] {
		heavyTarget = adj[1]
	}
	for j := 0; j < h.NumWalkers(); j++ {
		for i := 0; i+1 < h.NumSteps(); i++ {
			if h.At(i, j) == hub {
				totalOut++
				if h.At(i+1, j) == heavyTarget {
					heavy++
				}
			}
		}
	}
	if totalOut < 1000 {
		t.Fatalf("too few observations: %d", totalOut)
	}
	share := float64(heavy) / float64(totalOut)
	if math.Abs(share-0.75) > 0.05 {
		t.Errorf("heavy-edge share %.3f, want ≈0.75", share)
	}
}

func TestEngineErrors(t *testing.T) {
	g := undirectedTestGraph(t, 200, 12)
	if _, err := New(g, algo.Spec{Order: 5, Steps: 1}, Config{}); err == nil {
		t.Error("bad spec accepted")
	}
	spec := algo.DeepWalk()
	spec.Weighted = true
	if _, err := New(g, spec, Config{}); err == nil {
		t.Error("weighted walk on unweighted graph accepted")
	}
	// Unsorted graph rejected.
	n := g.NumVertices()
	fwd := make([]graph.VID, n)
	bwd := make([]graph.VID, n)
	for i := uint32(0); i < n; i++ {
		fwd[i], bwd[n-1-i] = n-1-i, i
	}
	if _, err := New(graph.Relabel(g, fwd, bwd), algo.DeepWalk(), Config{}); err == nil {
		t.Error("unsorted graph accepted")
	}
	e := newEngine(t, g, algo.DeepWalk(), Config{Part: part.Config{TargetGroups: 8}})
	if _, err := e.Run(10, -1); err == nil {
		t.Error("negative steps accepted")
	}
}

func TestEngineDefaultsToSpecSteps(t *testing.T) {
	g := undirectedTestGraph(t, 200, 13)
	e := newEngine(t, g, algo.DeepWalk(), Config{Part: part.Config{TargetGroups: 8}})
	res, err := e.Run(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 80 {
		t.Errorf("steps = %d, want DeepWalk default 80", res.Steps)
	}
}

func TestVertexOfEdge(t *testing.T) {
	g := undirectedTestGraph(t, 100, 14)
	for x := uint64(0); x < g.NumEdges(); x += 7 {
		v := vertexOfEdge(g, x)
		if x < g.Offsets[v] || x >= g.Offsets[v+1] {
			t.Fatalf("edge %d mapped to vertex %d with range [%d,%d)", x, v, g.Offsets[v], g.Offsets[v+1])
		}
	}
}
