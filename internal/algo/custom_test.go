package algo

import (
	"math"
	"testing"

	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

func TestCustomSpecValidation(t *testing.T) {
	ok := Custom("x", 10, &Transition{MaxWeight: 1, Weight: func(g *graph.CSR, p, c, x graph.VID) float64 { return 1 }})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Order: 1, Steps: 1, Custom: &Transition{MaxWeight: 1, Weight: func(g *graph.CSR, p, c, x graph.VID) float64 { return 1 }}},
		{Order: 2, Steps: 1, P: 1, Q: 1, Custom: &Transition{MaxWeight: 1}},
		{Order: 2, Steps: 1, P: 1, Q: 1, Custom: &Transition{Weight: func(g *graph.CSR, p, c, x graph.VID) float64 { return 1 }}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad custom spec %d accepted", i)
		}
	}
}

func TestNextCustomMatchesNode2Vec(t *testing.T) {
	// A custom transition encoding node2vec's weights must reproduce the
	// built-in sampler's distribution.
	g := lineGraph(t)
	p, q := 2.0, 0.5
	tr := &Transition{
		MaxWeight: 2, // max(1/p, 1, 1/q) = 1/q = 2
		Weight: func(g *graph.CSR, prev, cur, cand graph.VID) float64 {
			return Node2VecWeight(g, prev, cand, p, q)
		},
	}
	srcA := rng.NewXorShift64Star(1)
	srcB := rng.NewXorShift64Star(2)
	const draws = 60000
	custom := map[graph.VID]float64{}
	builtin := map[graph.VID]float64{}
	for i := 0; i < draws; i++ {
		custom[NextCustom(g, tr, 0, 1, srcA)]++
		builtin[NextNode2Vec(g, 0, 1, p, q, srcB)]++
	}
	for _, x := range g.Neighbors(1) {
		a, b := custom[x]/draws, builtin[x]/draws
		if math.Abs(a-b) > 0.015 {
			t.Errorf("candidate %d: custom %.3f vs builtin %.3f", x, a, b)
		}
	}
}

func TestNoBacktrackSuppressesReturns(t *testing.T) {
	g := lineGraph(t)
	spec := NoBacktrack(10, 0.01)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.NewXorShift64Star(3)
	var returns, total int
	for i := 0; i < 40000; i++ {
		// Walker at 1 arrived from 0.
		if NextCustom(g, spec.Custom, 0, 1, src) == 0 {
			returns++
		}
		total++
	}
	// Uniform would return ~1/3 of the time; eps=0.01 should nearly
	// eliminate it.
	if rate := float64(returns) / float64(total); rate > 0.02 {
		t.Errorf("return rate %.4f, want < 0.02", rate)
	}
}

func TestNextCustomSingleNeighbour(t *testing.T) {
	// Weight 0 everywhere must not hang when only one continuation
	// exists.
	res, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transition{MaxWeight: 1, Weight: func(g *graph.CSR, p, c, x graph.VID) float64 { return 0 }}
	src := rng.NewXorShift64Star(4)
	if got := NextCustom(res.Graph, tr, 0, 1, src); got != 0 {
		t.Errorf("single-neighbour custom step went to %d", got)
	}
}

func TestHigherOrderValidation(t *testing.T) {
	ok := SelfAvoiding(3, 10, 0.01)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.Order != 4 {
		t.Errorf("window 3 should be order 4, got %d", ok.Order)
	}
	bad := []Spec{
		{Order: 3, Steps: 1}, // order 3 without history
		{Order: 2, Steps: 1, History: &KTransition{Window: 3, MaxWeight: 1,
			Weight: func(g *graph.CSR, h []graph.VID, c, x graph.VID) float64 { return 1 }}}, // mismatch
		{Order: 2, Steps: 1, History: &KTransition{Window: 1, MaxWeight: 0,
			Weight: func(g *graph.CSR, h []graph.VID, c, x graph.VID) float64 { return 1 }}}, // bad bound
		{Order: 1, Steps: 1, History: &KTransition{Window: 0, MaxWeight: 1,
			Weight: func(g *graph.CSR, h []graph.VID, c, x graph.VID) float64 { return 1 }}}, // window 0
		{Order: 3, Steps: 1, StopProb: 0.3, History: &KTransition{Window: 2, MaxWeight: 1,
			Weight: func(g *graph.CSR, h []graph.VID, c, x graph.VID) float64 { return 1 }}}, // restarts
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad higher-order spec %d accepted", i)
		}
	}
	both := SelfAvoiding(2, 5, 0.1)
	both.Custom = &Transition{MaxWeight: 1, Weight: func(g *graph.CSR, p, c, x graph.VID) float64 { return 1 }}
	if err := both.Validate(); err == nil {
		t.Error("Custom+History accepted")
	}
}

func TestNextHigherOrderAvoidsWindow(t *testing.T) {
	g := lineGraph(t)
	spec := SelfAvoiding(2, 10, 0.001)
	src := rng.NewXorShift64Star(5)
	// Walker at 1 with history [0, 2]: both 0 and 2 are recent, so of
	// neighbours {0, 2, 3} nearly all samples must pick 3.
	hist := []graph.VID{0, 2}
	var picked3, total int
	for i := 0; i < 20000; i++ {
		if NextHigherOrder(g, spec.History, hist, 1, src) == 3 {
			picked3++
		}
		total++
	}
	if rate := float64(picked3) / float64(total); rate < 0.99 {
		t.Errorf("fresh-vertex rate %.4f, want > 0.99", rate)
	}
}
