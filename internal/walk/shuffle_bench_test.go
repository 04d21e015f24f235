package walk

import (
	"fmt"
	"math"
	"testing"

	"flashmob/internal/graph"
)

// BenchmarkShuffleInlineCrossover times one Forward+Reverse step on a
// 2,048-partition plan at walker counts around InlineCutoff, with the
// step's phases run inline and handed to a 2-worker pool. The walker
// count where the pool starts to win is the crossover InlineCutoff is
// set from (DESIGN.md records the measurement).
func BenchmarkShuffleInlineCrossover(b *testing.B) {
	plan := testPlan(b, 1<<17, 12, 6, false)
	p := testPool(b, 2)
	for _, n := range []int{256, 1024, 4096, 16384, 65536, 262144} {
		w := randomWalkers(n, 1<<17, 5)
		sw := make([]graph.VID, n)
		next := make([]graph.VID, n)
		s, err := NewShuffler(plan, n, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name   string
			cutoff int
		}{{"pooled", 0}, {"inline", math.MaxInt}} {
			b.Run(fmt.Sprintf("walkers=%d/%s", n, path.name), func(b *testing.B) {
				defer func(old int) { InlineCutoff = old }(InlineCutoff)
				InlineCutoff = path.cutoff
				for i := 0; i < b.N; i++ {
					if err := s.Forward(w, sw, nil, nil); err != nil {
						b.Fatal(err)
					}
					if err := s.Reverse(w, sw, next, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/walker")
			})
		}
	}
}
