// Package baseline re-implements the two comparison systems of the paper's
// evaluation as the paper characterizes them (§2.2, §5):
//
//   - KnightKing (Yang et al., SOSP 2019): walkers processed one at a time,
//     each step a direct whole-graph random access; a walker is advanced as
//     far as possible before the next one starts (single-node: its entire
//     path), chasing pointers through DRAM; edge sampling uses the Mersenne
//     Twister; node2vec uses rejection sampling.
//
//   - GraphVite (Zhu et al., WWW 2019): the CPU sampling side of the
//     CPU-GPU embedding system; also path-at-a-time, but with an additional
//     level of indirection per step (per-vertex descriptor objects) and a
//     heavier per-sample bookkeeping path, which is why the paper measures
//     it 2.2–3.8× slower than KnightKing.
//
// Both implement exactly the same stochastic process as the FlashMob
// engine in internal/core, so output distributions are interchangeable;
// only the memory-access structure differs.
package baseline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// Result reports a baseline run.
type Result struct {
	Walkers    uint64
	Steps      int
	TotalSteps uint64
	Duration   time.Duration
	// History holds per-walker paths when recording was requested.
	History *walk.History
}

// PerStepNS returns average wall nanoseconds per walker-step.
func (r *Result) PerStepNS() float64 {
	if r.TotalSteps == 0 {
		return 0
	}
	return float64(r.Duration.Nanoseconds()) / float64(r.TotalSteps)
}

// Config tunes a baseline engine.
type Config struct {
	// Workers is the thread count (default GOMAXPROCS); walkers are
	// partitioned contiguously across threads, as in both systems'
	// single-node modes.
	Workers int
	// Seed drives the per-worker RNG streams.
	Seed uint64
	// RecordHistory keeps every path.
	RecordHistory bool
}

// KnightKing is the walker-at-a-time baseline engine.
type KnightKing struct {
	g    *graph.CSR
	spec algo.Spec
	cfg  Config
}

// NewKnightKing builds the engine. Unlike FlashMob, no vertex ordering is
// required — the whole graph is its working set.
func NewKnightKing(g *graph.CSR, spec algo.Spec, cfg Config) (*KnightKing, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("baseline: empty graph")
	}
	if spec.Weighted && g.Weights == nil {
		return nil, fmt.Errorf("baseline: weighted walk on unweighted graph")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &KnightKing{g: g, spec: spec, cfg: cfg}, nil
}

// Run walks totalWalkers walkers (0 = |V|) for steps steps (0 = spec
// default), walker j starting at vertex j mod |V|.
func (k *KnightKing) Run(totalWalkers uint64, steps int) (*Result, error) {
	return runPathAtATime(k.g, k.spec, k.cfg, totalWalkers, steps, false)
}

// GraphVite is the heavier path-at-a-time baseline.
type GraphVite struct {
	g    *graph.CSR
	spec algo.Spec
	cfg  Config
}

// NewGraphVite builds the engine.
func NewGraphVite(g *graph.CSR, spec algo.Spec, cfg Config) (*GraphVite, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("baseline: empty graph")
	}
	if spec.Weighted && g.Weights == nil {
		return nil, fmt.Errorf("baseline: weighted walk on unweighted graph")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &GraphVite{g: g, spec: spec, cfg: cfg}, nil
}

// Run walks totalWalkers walkers for steps steps.
func (gv *GraphVite) Run(totalWalkers uint64, steps int) (*Result, error) {
	return runPathAtATime(gv.g, gv.spec, gv.cfg, totalWalkers, steps, true)
}

// vertexDesc is GraphVite's per-vertex descriptor indirection: instead of
// computing adjacency bounds from CSR offsets, each step dereferences a
// descriptor object — one extra dependent load per sample, plus per-path
// buffer bookkeeping.
type vertexDesc struct {
	adj     []graph.VID
	weights []float32
	degree  uint32
	_       [4]byte // pad: descriptors are heap objects in GraphVite
}

func runPathAtATime(g *graph.CSR, spec algo.Spec, cfg Config, totalWalkers uint64, steps int, heavy bool) (*Result, error) {
	if totalWalkers == 0 {
		totalWalkers = uint64(g.NumVertices())
	}
	if steps == 0 {
		steps = spec.Steps
	}
	if steps < 0 {
		return nil, fmt.Errorf("baseline: negative step count")
	}

	var weighted *algo.WeightedSampler
	if spec.Weighted {
		ws, err := algo.NewWeightedSampler(g)
		if err != nil {
			return nil, err
		}
		weighted = ws
	}

	var descs []*vertexDesc
	if heavy {
		descs = make([]*vertexDesc, g.NumVertices())
		for v := uint32(0); v < g.NumVertices(); v++ {
			descs[v] = &vertexDesc{
				adj:     g.Neighbors(v),
				weights: g.EdgeWeights(v),
				degree:  g.Degree(v),
			}
		}
	}

	// Positions are recorded straight into a flat step-major matrix —
	// walker j's location after step s at s*totalWalkers+j — whose rows
	// become the history, the output shape every engine exposes. Workers
	// own disjoint walkers, so their writes never overlap.
	var positions []graph.VID
	if cfg.RecordHistory {
		positions = make([]graph.VID, uint64(steps+1)*totalWalkers)
	}

	workers := cfg.Workers
	if uint64(workers) > totalWalkers && totalWalkers > 0 {
		workers = int(totalWalkers)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := totalWalkers * uint64(wk) / uint64(workers)
		hi := totalWalkers * uint64(wk+1) / uint64(workers)
		wg.Add(1)
		go func(wk int, lo, hi uint64) {
			defer wg.Done()
			// KnightKing uses std::mt19937; keep that cost profile.
			src := rng.Source(rng.NewMT19937(uint32(cfg.Seed) + uint32(wk)*2654435761 + 1))
			n := g.NumVertices()
			for j := lo; j < hi; j++ {
				cur := graph.VID(uint32(j) % n)
				prev := cur
				if positions != nil {
					positions[j] = cur
				}
				// Order-k history window, most recent first.
				var hist []graph.VID
				if spec.History != nil {
					hist = make([]graph.VID, spec.History.Window)
					for c := range hist {
						hist[c] = cur
					}
				}
				// The entire path is walked before the next walker starts
				// — the pointer-chasing pattern §2.2 criticizes.
				for s := 0; s < steps; s++ {
					if spec.StopProb > 0 && rng.Float64(src) < spec.StopProb {
						nv := graph.VID(rng.Uint32n(src, n))
						prev, cur = nv, nv
						for c := range hist {
							hist[c] = nv
						}
					} else if spec.History != nil {
						next := algo.NextHigherOrder(g, spec.History, hist, cur, src)
						copy(hist[1:], hist)
						hist[0] = cur
						prev, cur = cur, next
					} else {
						next := stepOnce(g, spec, weighted, descs, prev, cur, src)
						prev, cur = cur, next
					}
					if positions != nil {
						positions[uint64(s+1)*totalWalkers+j] = cur
					}
				}
			}
		}(wk, lo, hi)
	}
	wg.Wait()
	dur := time.Since(start)

	res := &Result{
		Walkers:    totalWalkers,
		Steps:      steps,
		TotalSteps: totalWalkers * uint64(steps),
		Duration:   dur,
	}
	if positions != nil {
		rows := make([][]graph.VID, steps+1)
		for s := range rows {
			rows[s] = positions[uint64(s)*totalWalkers : uint64(s+1)*totalWalkers]
		}
		h, err := walk.NewHistory(rows)
		if err != nil {
			return nil, err
		}
		res.History = h
	}
	return res, nil
}

// stepOnce advances one walker one step under the spec, through the
// descriptor indirection when present (GraphVite mode).
func stepOnce(g *graph.CSR, spec algo.Spec, weighted *algo.WeightedSampler, descs []*vertexDesc, prev, cur graph.VID, src rng.Source) graph.VID {
	if spec.Order == 2 {
		if spec.Custom != nil {
			return algo.NextCustom(g, spec.Custom, prev, cur, src)
		}
		return algo.NextNode2Vec(g, prev, cur, spec.P, spec.Q, src)
	}
	if weighted != nil {
		return weighted.Next(cur, src)
	}
	if descs != nil {
		d := descs[cur]
		if d.degree == 0 {
			return cur
		}
		// GraphVite's extra draw: it samples an edge offset and a
		// tie-break uniform per step.
		idx := rng.Uint32n(src, d.degree)
		_ = rng.Float64(src)
		return d.adj[idx]
	}
	return algo.NextFirstOrder(g, cur, src)
}
