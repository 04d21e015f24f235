// Package algo defines the random-walk algorithms evaluated in the paper —
// DeepWalk (first-order uniform) and node2vec (second-order biased) — plus
// the classical weighted and stochastic-termination walks the substrate
// supports. The per-step samplers here are shared by every engine
// (FlashMob, the KnightKing-style baseline, the GraphVite-style baseline,
// and the trace-driven simulators), so all engines walk the exact same
// process and differ only in memory behaviour.
package algo

import (
	"fmt"

	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// Spec describes a random-walk algorithm instance.
type Spec struct {
	// Name labels the algorithm in reports.
	Name string
	// Order is 1 for first-order walks, 2 for second-order.
	Order int
	// Steps is the default walk length (DeepWalk: 80, node2vec: 40 in the
	// paper's evaluation tradition).
	Steps int
	// P and Q are node2vec's return and in-out hyper-parameters (used when
	// Order == 2).
	P, Q float64
	// Weighted selects weight-proportional edge sampling (requires the
	// graph to carry weights).
	Weighted bool
	// StopProb is a per-step stochastic termination probability (0 means
	// walks run exactly Steps steps). PageRank-style walks set 1-damping.
	StopProb float64
	// Custom, when non-nil, replaces the node2vec transition weights with
	// an application-defined second-order transition (see Transition).
	Custom *Transition
	// History, when non-nil, defines an order-k transition over a bounded
	// history window (see KTransition). Order must equal
	// History.Window+1, and StopProb must be 0: order-k walks have no
	// restart path.
	History *KTransition
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	if s.History != nil {
		if s.Custom != nil {
			return fmt.Errorf("algo: Custom and History transitions are mutually exclusive")
		}
		if s.History.Window < 1 {
			return fmt.Errorf("algo: history window must be ≥ 1")
		}
		if s.Order != s.History.Window+1 {
			return fmt.Errorf("algo: order %d does not match history window %d (+1)", s.Order, s.History.Window)
		}
		if s.History.Weight == nil || s.History.MaxWeight <= 0 {
			return fmt.Errorf("algo: history transition needs a weight function and positive MaxWeight")
		}
		if s.StopProb != 0 {
			// The order-k sampler has no restart path: a stop probability
			// would be silently ignored.
			return fmt.Errorf("algo: history transitions do not support a stop probability")
		}
	} else if s.Order != 1 && s.Order != 2 {
		return fmt.Errorf("algo: order %d unsupported without a history transition", s.Order)
	}
	if s.Steps <= 0 {
		return fmt.Errorf("algo: steps must be positive, got %d", s.Steps)
	}
	if s.Order == 2 && s.Custom == nil && (s.P <= 0 || s.Q <= 0) {
		return fmt.Errorf("algo: node2vec requires positive p (%v) and q (%v)", s.P, s.Q)
	}
	if s.Custom != nil {
		if s.Order != 2 {
			return fmt.Errorf("algo: custom transitions require a second-order spec")
		}
		if s.Custom.Weight == nil {
			return fmt.Errorf("algo: custom transition has no weight function")
		}
		if s.Custom.MaxWeight <= 0 {
			return fmt.Errorf("algo: custom transition needs a positive MaxWeight bound")
		}
	}
	if s.StopProb < 0 || s.StopProb >= 1 {
		return fmt.Errorf("algo: stop probability %v out of [0,1)", s.StopProb)
	}
	return nil
}

// DeepWalk returns the paper's primary workload: a first-order uniform
// walk of 80 steps (Perozzi et al. 2014 defaults).
func DeepWalk() Spec {
	return Spec{Name: "DeepWalk", Order: 1, Steps: 80}
}

// Node2Vec returns the second-order biased walk (Grover & Leskovec 2016),
// 40 steps by default.
func Node2Vec(p, q float64) Spec {
	return Spec{Name: "node2vec", Order: 2, Steps: 40, P: p, Q: q}
}

// PageRankWalk returns a first-order walk with stochastic termination at
// probability 1-damping per step, the Monte-Carlo PageRank estimator.
func PageRankWalk(damping float64) Spec {
	return Spec{Name: "PageRank", Order: 1, Steps: 256, StopProb: 1 - damping}
}

// NextFirstOrder samples a uniform out-edge of u and returns its target.
// Dead ends (zero out-degree) keep the walker in place, so walker arrays
// never hold invalid VIDs.
func NextFirstOrder(g *graph.CSR, u graph.VID, src rng.Source) graph.VID {
	d := g.Degree(u)
	if d == 0 {
		return u
	}
	return g.Neighbors(u)[rng.Uint32n(src, d)]
}

// Node2VecWeight returns the unnormalized node2vec transition weight of
// moving from u to candidate x, given predecessor s: 1/p to return to s, 1
// to a common neighbour of s, 1/q otherwise.
func Node2VecWeight(g *graph.CSR, s, x graph.VID, p, q float64) float64 {
	switch {
	case x == s:
		return 1 / p
	case g.HasEdge(s, x):
		return 1
	default:
		return 1 / q
	}
}

// NextNode2Vec samples the next vertex of a node2vec walk at u with
// predecessor s, using rejection sampling (the KnightKing/FlashMob
// technique): draw a uniform neighbour candidate, accept with probability
// weight/maxWeight. Expected tries are bounded by maxWeight/minWeight.
func NextNode2Vec(g *graph.CSR, s, u graph.VID, p, q float64, src rng.Source) graph.VID {
	d := g.Degree(u)
	if d == 0 {
		return u
	}
	adj := g.Neighbors(u)
	maxW := 1.0
	if 1/p > maxW {
		maxW = 1 / p
	}
	if 1/q > maxW {
		maxW = 1 / q
	}
	for {
		x := adj[rng.Uint32n(src, d)]
		w := Node2VecWeight(g, s, x, p, q)
		if w >= maxW || rng.Float64(src)*maxW < w {
			return x
		}
	}
}

// NextNode2VecExact computes the full transition distribution and samples
// it by inverse transform — O(degree) per step. It exists as the reference
// implementation the rejection sampler is tested against.
func NextNode2VecExact(g *graph.CSR, s, u graph.VID, p, q float64, src rng.Source) graph.VID {
	d := g.Degree(u)
	if d == 0 {
		return u
	}
	adj := g.Neighbors(u)
	weights := make([]float64, d)
	for i, x := range adj {
		weights[i] = Node2VecWeight(g, s, x, p, q)
	}
	return adj[rng.NewCDF(weights).Sample(src)]
}

// WeightedSampler performs weight-proportional first-order sampling with
// per-vertex alias tables (Walker 1977), the classical pre-processing
// technique referenced in the paper's related work. Build cost is
// O(|E|); each sample is O(1).
type WeightedSampler struct {
	tables []*rng.AliasTable
	g      *graph.CSR
}

// NewWeightedSampler builds alias tables for every vertex of a weighted
// graph.
func NewWeightedSampler(g *graph.CSR) (*WeightedSampler, error) {
	if g.Weights == nil {
		return nil, fmt.Errorf("algo: weighted sampler needs a weighted graph")
	}
	ws := &WeightedSampler{tables: make([]*rng.AliasTable, g.NumVertices()), g: g}
	for v := uint32(0); v < g.NumVertices(); v++ {
		ew := g.EdgeWeights(v)
		if len(ew) == 0 {
			continue
		}
		w64 := make([]float64, len(ew))
		allZero := true
		for i, x := range ew {
			w64[i] = float64(x)
			if x > 0 {
				allZero = false
			}
		}
		if allZero {
			// Degenerate weights: fall back to uniform.
			for i := range w64 {
				w64[i] = 1
			}
		}
		ws.tables[v] = rng.NewAliasTable(w64)
	}
	return ws, nil
}

// Next samples the next vertex from u proportionally to edge weight.
func (ws *WeightedSampler) Next(u graph.VID, src rng.Source) graph.VID {
	t := ws.tables[u]
	if t == nil {
		return u
	}
	return ws.g.Neighbors(u)[t.Sample(src)]
}

// NextFrom is Next with a concrete generator: the same draw sequence, but
// the alias draw devirtualizes so the weighted sample kernels stay
// RNG-bound rather than dispatch-bound.
func (ws *WeightedSampler) NextFrom(u graph.VID, x *rng.XorShift1024Star) graph.VID {
	t := ws.tables[u]
	if t == nil {
		return u
	}
	return ws.g.Neighbors(u)[t.SampleFrom(x)]
}
