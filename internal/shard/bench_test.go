package shard

import (
	"context"
	"fmt"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
)

// BenchmarkShardedWave measures one served-shape wave — 16 seeded
// cohorts of 32 walkers × 16 steps, DeepWalk and node2vec alternating —
// on a 2-worker engine over a 60k-vertex YT-shaped graph, run by the
// single engine and by in-process topologies of 1 and 2 shards. All
// legs walk the same trajectories, so the gap between them is what the
// superstep loop and its exchange rounds cost a serving wave.
func BenchmarkShardedWave(b *testing.B) {
	p, err := gen.PresetByName("YT")
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.Generate(p.FullVertices/60000, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.New(graph.SortByDegreeDesc(g).Graph, algo.DeepWalk(), core.Config{Workers: 2, Seed: 1, RecordHistory: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	cohorts := make([]core.Cohort, 16)
	for i := range cohorts {
		spec := algo.DeepWalk()
		if i%2 == 1 {
			spec = algo.Node2Vec(0.5, 2)
		}
		cohorts[i] = core.Cohort{Spec: spec, Walkers: 32, Steps: 16, Seed: uint64(101 + i)}
	}
	b.Run("single", func(b *testing.B) {
		benchWaves(b, func() error { _, err := e.RunMixed(cohorts); return err })
	})
	for _, shards := range []int{1, 2} {
		topo, err := New(e, shards)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchWaves(b, func() error { _, err := topo.RunMixed(context.Background(), cohorts); return err })
		})
	}
}

// benchWaves times b.N calls of wave after one off the clock, which warms
// the engine's pooled sessions, and reports ns/wave.
func benchWaves(b *testing.B, wave func() error) {
	if err := wave(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wave(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/wave")
}
