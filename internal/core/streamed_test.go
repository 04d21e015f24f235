package core

import (
	"context"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// sliceSource serves a streamed engine's blocks from an in-memory CSR:
// the whole step as one group over the full edge array, or one group per
// chunk over exactly that partition's edges, so a kernel reading outside
// its group's block faults instead of passing.
type sliceSource struct {
	g        *graph.CSR
	e        *Engine // the streamed engine, for its plan
	perChunk bool
}

func (s *sliceSource) Blocks(_ context.Context, chunks []walk.Chunk, sample func([]walk.Chunk, []graph.VID, uint64)) error {
	if !s.perChunk {
		sample(chunks, s.g.Targets, 0)
		return nil
	}
	for i, c := range chunks {
		vp := s.e.plan.VPs[c.VP]
		lo, hi := s.g.Offsets[vp.Start], s.g.Offsets[vp.End]
		sample(chunks[i:i+1], s.g.Targets[lo:hi:hi], lo)
	}
	return nil
}

// newSliceStreamed builds a streamed engine over g's offsets on the
// uniform-DS plan ref was built with, serving blocks from g.
func newSliceStreamed(t *testing.T, g *graph.CSR, ref *Engine, spec algo.Spec, perChunk bool) *Engine {
	t.Helper()
	src := &sliceSource{g: g, perChunk: perChunk}
	cfg := ref.cfg
	cfg.Plan = ref.plan
	e, err := NewStreamed(g.Offsets, spec, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src.e = e
	return e
}

// TestStreamedGroupingInvariance: a streamed engine's trajectories do not
// depend on how its block source groups a step's chunks — a source that
// hands them over one at a time and one that hands over the whole step
// both reproduce the in-memory engine on the same plan and seed, for a
// solo run with sub-sharded chunks and for a two-cohort mixed run.
func TestStreamedGroupingInvariance(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		defer func(old uint64) { SubShardSize = old }(SubShardSize)
		SubShardSize = 32

		g := undirectedTestGraph(t, 600, 3)
		cfg := Config{Workers: 3, Seed: 5, Planner: PlannerUniformDS, RecordHistory: true,
			Part: part.Config{MaxBins: 32}}
		mem := newEngine(t, g, algo.DeepWalk(), cfg)
		defer mem.Close()
		kinds := map[kernelKind]bool{}
		for _, k := range mem.kern {
			kinds[k.kind] = true
		}
		if !kinds[kernDSRegular] || !kinds[kernDSCSR] {
			t.Fatalf("plan must mix uniform- and mixed-degree partitions, kernels %v", kinds)
		}
		solo := seededRun(t, mem, 21, 1500, 6)
		cohorts := []Cohort{
			{Spec: algo.DeepWalk(), Walkers: 700, Steps: 6, Seed: 8},
			{Spec: algo.PageRankWalk(0.85), Walkers: 500, Steps: 4, Seed: 9},
		}
		mixed := mixedRun(t, mem, cohorts)

		for _, perChunk := range []bool{false, true} {
			se := newSliceStreamed(t, g, mem, algo.DeepWalk(), perChunk)
			if !historiesEqual(seededRun(t, se, 21, 1500, 6).History, solo.History) {
				t.Fatalf("perChunk=%v: streamed solo run diverged from the in-memory engine", perChunk)
			}
			got := mixedRun(t, se, cohorts)
			for k := range cohorts {
				if !historiesEqual(got.Cohorts[k].History, mixed.Cohorts[k].History) {
					t.Fatalf("perChunk=%v: streamed cohort %d diverged from the in-memory engine", perChunk, k)
				}
			}
			se.Close()
		}
	})
}

// TestStreamedRefusesTargetReaders: a streamed engine has no edge array,
// so every path that would read one is refused with an error — at
// construction (PS plans, weighted or higher-order specs) and at
// admission (such cohorts, overlays).
func TestStreamedRefusesTargetReaders(t *testing.T) {
	g := undirectedTestGraph(t, 300, 4)
	ds := newEngine(t, g, algo.DeepWalk(), Config{Workers: 1, Planner: PlannerUniformDS})
	defer ds.Close()
	ps := newEngine(t, g, algo.DeepWalk(), Config{Workers: 1, Planner: PlannerUniformPS})
	defer ps.Close()
	src := &sliceSource{g: g}
	weighted := algo.DeepWalk()
	weighted.Weighted = true
	for name, build := range map[string]func() (*Engine, error){
		"ps-plan": func() (*Engine, error) { return NewStreamed(g.Offsets, algo.DeepWalk(), src, Config{Plan: ps.plan}) },
		"node2vec": func() (*Engine, error) {
			return NewStreamed(g.Offsets, algo.Node2Vec(2, 0.5), src, Config{Plan: ds.plan})
		},
		"weighted":  func() (*Engine, error) { return NewStreamed(g.Offsets, weighted, src, Config{Plan: ds.plan}) },
		"no-source": func() (*Engine, error) { return NewStreamed(g.Offsets, algo.DeepWalk(), nil, Config{Plan: ds.plan}) },
		"no-plan":   func() (*Engine, error) { return NewStreamed(g.Offsets, algo.DeepWalk(), src, Config{}) },
	} {
		if e, err := build(); err == nil {
			e.Close()
			t.Errorf("%s: streamed engine built, want an error", name)
		}
	}

	se := newSliceStreamed(t, g, ds, algo.DeepWalk(), false)
	defer se.Close()
	s, err := se.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n2v := algo.Node2Vec(2, 0.5)
	if _, err := s.RunMixed([]Cohort{{Spec: n2v, Walkers: 10, Steps: 2}}); err == nil {
		t.Error("streamed engine admitted a node2vec cohort")
	}
	if err := s.BindCohort(0, &Cohort{Spec: n2v, Walkers: 10}); err == nil {
		t.Error("streamed engine bound a node2vec cohort")
	}
	delta := []graph.Edge{{Src: 0, Dst: 299}}
	if _, err := BuildOverlay(se, delta); err == nil {
		t.Error("streamed engine built an overlay")
	}
	ov, err := BuildOverlay(ds, delta)
	if err != nil || ov == nil {
		t.Fatalf("in-memory overlay: %v, %v", ov, err)
	}
	if _, err := se.NewSessionOverlay(context.Background(), ov); err == nil {
		t.Error("streamed engine opened an overlay session")
	}
}
