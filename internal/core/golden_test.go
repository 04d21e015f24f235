package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/walk"
)

// goldenHash folds trajectories, per-partition step counts, and the
// deterministic (non-time) metrics into one FNV-64a digest.
type goldenHash struct{ h hash.Hash64 }

func newGoldenHash() *goldenHash { return &goldenHash{h: fnv.New64a()} }

func (g *goldenHash) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	g.h.Write(b[:])
}

func (g *goldenHash) vids(w []graph.VID) {
	g.u64(uint64(len(w)))
	var b [4]byte
	for _, v := range w {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		g.h.Write(b[:])
	}
}

func (g *goldenHash) history(h *walk.History) {
	g.u64(uint64(h.NumSteps()))
	row := make([]graph.VID, h.NumWalkers())
	for i := 0; i < h.NumSteps(); i++ {
		for j := range row {
			row[j] = h.At(i, j)
		}
		g.vids(row)
	}
}

func (g *goldenHash) counts(c []uint64) {
	g.u64(uint64(len(c)))
	for _, x := range c {
		g.u64(x)
	}
}

// report folds every metric whose unit is not a duration: counts and
// walker-steps are a pure function of the run, wall times are not.
func (g *goldenHash) report(r *obs.Report) {
	for _, c := range r.Counters {
		if c.Unit != "ns" {
			g.h.Write([]byte(c.Name))
			g.u64(c.Value)
		}
	}
	for _, h := range r.Histograms {
		if h.Unit != "ns" {
			g.h.Write([]byte(h.Name))
			g.u64(h.Count)
			g.u64(h.Sum)
		}
	}
	for _, v := range r.Vectors {
		if v.Unit != "ns" {
			g.h.Write([]byte(v.Name))
			g.counts(v.Values)
		}
	}
}

// TestGoldenTrajectories pins the engine's trajectories, partition step
// counts and structural metrics to recorded digests. The equivalence
// suites compare execution modes with each other; this test catches a
// change that shifts every mode the same way. A digest may only change
// together with a deliberate change to the sampling schedule.
func TestGoldenTrajectories(t *testing.T) {
	defer func(old uint64) { SubShardSize = old }(SubShardSize)
	SubShardSize = 4

	g := undirectedTestGraph(t, 600, 3)
	base := Config{
		Workers: 4, Seed: 19, Planner: PlannerMCKP, RecordHistory: true, Metrics: true,
		// Caches scaled down with the graph, so the MCKP plan pre-samples
		// the hub partitions and direct-samples the tail.
		Model: profile.NewAnalyticalModel(mem.ScaledGeometry(100)),
		Part:  part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
	check := func(t *testing.T, gh *goldenHash, want uint64) {
		t.Helper()
		if got := gh.h.Sum64(); got != want {
			t.Errorf("digest %#x, recorded %#x", got, want)
		}
	}
	subShards := func(t *testing.T, r *obs.Report) {
		t.Helper()
		if c, _ := r.Counter("core_sample_subshards_total"); c.Value == 0 {
			t.Error("no chunk was split into sub-shards")
		}
	}

	t.Run("solo-episodes", func(t *testing.T) {
		onBothPaths(t, func(t *testing.T) {
			gh := newGoldenHash()
			cfg := base
			cfg.MemoryBudget = 12 * 300 // 1000 walkers → episodes of 300, 300, 300, 100
			cfg.StepSink = func(step int, cur, next []graph.VID) {
				gh.u64(uint64(step))
				gh.vids(cur)
				gh.vids(next)
			}
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			defer e.Close()
			var ps, ds bool
			for _, isPS := range e.psVP {
				ps, ds = ps || isPS, ds || !isPS
			}
			if !ps || !ds {
				t.Fatalf("plan needs both PS and DS partitions (ps=%v ds=%v)", ps, ds)
			}
			// Two runs on one held session: the second starts from empty PS
			// buffers, as it would on a fresh session. Episodes of 300
			// walkers are above the sparse switch, so both run the plan's
			// PS kernels.
			s, err := e.NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var psRan uint64
			for run, seed := range []uint64{5, 6} {
				res, err := s.RunSeeded(seed, 1000, 5)
				if err != nil {
					t.Fatal(err)
				}
				if res.Episodes < 3 {
					t.Fatalf("run %d took %d episodes, want at least 3", run, res.Episodes)
				}
				subShards(t, res.Report)
				if n := psSteps(t, res.Report); n <= psRan {
					t.Fatalf("run %d ran no PS kernel walker-steps", run)
				} else {
					psRan = n
				}
				gh.history(res.History)
				gh.counts(res.VPSteps)
				gh.report(res.Report)
			}
			check(t, gh, 0xa7ceed978d1a1285)
		})
	})

	for _, tc := range []struct {
		name string
		spec algo.Spec
		want uint64
	}{
		{"node2vec", algo.Node2Vec(0.5, 2), 0xdcac8a46c9fa5726},
		{"pagerank", algo.PageRankWalk(0.85), 0xa5b79fa9f78e81db},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				e := newEngine(t, g, tc.spec, base)
				defer e.Close()
				res := seededRun(t, e, 23, 500, 7)
				if psSteps(t, res.Report) == 0 {
					t.Fatal("no PS kernel walker-steps")
				}
				gh := newGoldenHash()
				gh.history(res.History)
				gh.counts(res.VPSteps)
				gh.report(res.Report)
				check(t, gh, tc.want)
			})
		})
	}

	t.Run("mixed-ragged", func(t *testing.T) {
		onBothPaths(t, func(t *testing.T) {
			gh := newGoldenHash()
			cfg := base
			cfg.StepSink = func(step int, cur, next []graph.VID) {
				gh.u64(uint64(step))
				gh.vids(cur)
				gh.vids(next)
			}
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			defer e.Close()
			res := mixedRun(t, e, []Cohort{
				{Spec: algo.Node2Vec(2, 0.5), Walkers: 200, Steps: 3, Seed: 1},
				{Spec: algo.DeepWalk(), Walkers: 400, Steps: 7, Seed: 2},
				{Spec: algo.PageRankWalk(0.85), Walkers: 250, Steps: 5, Seed: 3},
			})
			for _, c := range res.Cohorts {
				gh.history(c.History)
			}
			subShards(t, res.Report)
			if psSteps(t, res.Report) == 0 {
				t.Fatal("no PS kernel walker-steps")
			}
			gh.counts(res.VPSteps)
			gh.report(res.Report)
			check(t, gh, 0x8f965257bafa9927)
		})
	})

	t.Run("stepper", func(t *testing.T) {
		onBothPaths(t, func(t *testing.T) {
			gh := newGoldenHash()
			for _, spec := range []algo.Spec{algo.DeepWalk(), algo.Node2Vec(0.5, 2)} {
				e := newEngine(t, g, spec, base)
				for _, row := range stepperWalk(t, e, &spec, 31, 450, 6) {
					gh.vids(row)
				}
				if psSteps(t, e.MetricsReport()) == 0 {
					t.Fatalf("%s: no PS kernel walker-steps", spec.Name)
				}
				e.Close()
			}
			check(t, gh, 0x4860ef43664fe053)
		})
	})

	// Below the sparse switch every driver binds the sparse template: the
	// plan's PS partitions direct-sample, and no PS kernel runs.
	t.Run("sparse", func(t *testing.T) {
		onBothPaths(t, func(t *testing.T) {
			gh := newGoldenHash()
			e := newEngine(t, g, algo.DeepWalk(), base)
			defer e.Close()
			gh.u64(e.SparseSwitch())
			gh.u64(uint64(e.SparseDSVPs()))
			res := mixedRun(t, e, []Cohort{
				{Spec: algo.Node2Vec(2, 0.5), Walkers: 60, Steps: 3, Seed: 1},
				{Spec: algo.DeepWalk(), Walkers: 150, Steps: 7, Seed: 2},
				{Spec: algo.PageRankWalk(0.85), Walkers: 9, Steps: 5, Seed: 3},
			})
			for _, c := range res.Cohorts {
				gh.history(c.History)
			}
			solo := seededRun(t, e, 23, 120, 7)
			gh.history(solo.History)
			for _, r := range []*obs.Report{res.Report, solo.Report} {
				if n := psSteps(t, r); n != 0 {
					t.Fatalf("%d PS kernel walker-steps below the sparse switch", n)
				}
				gh.report(r)
			}
			check(t, gh, 0xf37a31b560287256)
		})
	})
}
