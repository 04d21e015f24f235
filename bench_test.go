// Benchmarks regenerating the paper's tables and figures. Each experiment
// in DESIGN.md's index maps to a Benchmark* family here; the fmbench
// command runs the same measurements with nicer formatting and larger
// defaults. Benchmarks report the paper's headline metric as "ns/step"
// (wall nanoseconds per walker-step) via b.ReportMetric, alongside Go's
// usual ns/op.
package flashmob

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/baseline"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/part"
	"flashmob/internal/pool"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/sim"
	"flashmob/internal/walk"
)

const (
	benchSteps = 8
	benchSeed  = 42
)

// benchV scales each preset to this vertex count for benchmarking.
const benchV = 40_000

var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.CSR{}
)

// benchGraph returns a cached scaled preset graph (degree-sorted).
func benchGraph(b *testing.B, name string) *graph.CSR {
	b.Helper()
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g
	}
	p, err := gen.PresetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	div := p.FullVertices / benchV
	if div == 0 {
		div = 1
	}
	g, err := p.Generate(div, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	graphCache[name] = g
	return g
}

func hostCostModel() profile.CostModel {
	return profile.NewAnalyticalModel(mem.PaperGeometry())
}

// runFlashMob runs one FlashMob measurement iteration and reports ns/step.
func runFlashMob(b *testing.B, g *graph.CSR, spec algo.Spec, mut func(*core.Config)) {
	b.Helper()
	cfg := core.Config{Seed: benchSeed, Model: hostCostModel()}
	if mut != nil {
		mut(&cfg)
	}
	e, err := core.New(g, spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var perStep float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(0, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		perStep = res.PerStepNS()
	}
	b.ReportMetric(perStep, "ns/step")
}

func runKnightKing(b *testing.B, g *graph.CSR, spec algo.Spec) {
	b.Helper()
	k, err := baseline.NewKnightKing(g, spec, baseline.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var perStep float64
	for i := 0; i < b.N; i++ {
		res, err := k.Run(0, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		perStep = res.PerStepNS()
	}
	b.ReportMetric(perStep, "ns/step")
}

func runGraphVite(b *testing.B, g *graph.CSR, spec algo.Spec) {
	b.Helper()
	gv, err := baseline.NewGraphVite(g, spec, baseline.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var perStep float64
	for i := 0; i < b.N; i++ {
		res, err := gv.Run(0, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		perStep = res.PerStepNS()
	}
	b.ReportMetric(perStep, "ns/step")
}

// --- Figure 1a: per-step time, KnightKing on cache-sized toys + real
// graphs vs FlashMob ---

func BenchmarkFig1aKnightKingToy(b *testing.B) {
	geom := mem.PaperGeometry()
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"L1", geom.L1.SizeBytes * 3 / 4},
		{"L2", geom.L2.SizeBytes * 3 / 4},
		{"L3", geom.L3.SizeBytes * 3 / 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, _, err := gen.ToyForCacheBytes(tc.budget, 16, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			runKnightKing(b, g, algo.DeepWalk())
		})
	}
}

func BenchmarkFig1aKnightKing(b *testing.B) {
	for _, name := range []string{"YT", "YH"} {
		b.Run(name, func(b *testing.B) { runKnightKing(b, benchGraph(b, name), algo.DeepWalk()) })
	}
}

func BenchmarkFig1aFlashMob(b *testing.B) {
	for _, name := range []string{"YT", "YH"} {
		b.Run(name, func(b *testing.B) { runFlashMob(b, benchGraph(b, name), algo.DeepWalk(), nil) })
	}
}

// --- Figure 1b: per-step cache misses (trace-driven simulation) ---

func BenchmarkFig1bSimulated(b *testing.B) {
	geom := mem.ScaledGeometry(64)
	model := profile.NewAnalyticalModel(geom)
	for _, name := range []string{"YT", "YH"} {
		g := benchGraph(b, name)
		walkers := int(g.NumVertices())
		b.Run(name+"/KnightKing", func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = sim.NewKnightKingSim(g, geom, benchSeed).Run(walkers, 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMisses(b, rep)
		})
		b.Run(name+"/FlashMob", func(b *testing.B) {
			plan, err := part.PlanMCKP(g, part.Config{Walkers: uint64(walkers), Model: model})
			if err != nil {
				b.Fatal(err)
			}
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				fm, err := sim.NewFlashMobSim(g, plan, geom, benchSeed, sim.NumaNone)
				if err != nil {
					b.Fatal(err)
				}
				rep, err = fm.Run(walkers, 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMisses(b, rep)
		})
	}
}

func reportMisses(b *testing.B, rep *sim.Report) {
	b.ReportMetric(rep.MissesPerStep(mem.LocL1), "L1miss/step")
	b.ReportMetric(rep.MissesPerStep(mem.LocL2), "L2miss/step")
	b.ReportMetric(rep.MissesPerStep(mem.LocL3), "L3miss/step")
	b.ReportMetric(rep.DRAMBytesPerStep(), "DRAMB/step")
}

// --- Table 1: load latencies measured on the host ---

func BenchmarkTable1Latency(b *testing.B) {
	geom := mem.PaperGeometry()
	for _, tc := range []struct {
		name string
		ws   uint64
	}{
		{"L1", geom.L1.SizeBytes / 2},
		{"L2", geom.L2.SizeBytes / 2},
		{"LocalMem", geom.L3.SizeBytes * 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var r profile.LatencyResult
			for i := 0; i < b.N; i++ {
				r = profile.MeasureLatency(tc.ws, 1<<18, benchSeed)
			}
			b.ReportMetric(r.SeqNS, "seq-ns")
			b.ReportMetric(r.RandNS, "rand-ns")
			b.ReportMetric(r.ChaseNS, "chase-ns")
		})
	}
}

// --- Figure 6: sample-stage cost per policy/level/degree (measured) ---

func BenchmarkFig6SampleStage(b *testing.B) {
	geom := mem.PaperGeometry()
	for _, tc := range []struct {
		level string
		ws    uint64
	}{
		{"L2", geom.L2.SizeBytes * 3 / 4},
		{"DRAM", geom.L3.SizeBytes * 8},
	} {
		for _, d := range []uint32{16, 256} {
			name := fmt.Sprintf("%s/deg%d", tc.level, d)
			b.Run(name, func(b *testing.B) {
				tab, err := core.MeasureProfile(core.ProfilerConfig{
					Degrees:     []uint32{d},
					Densities:   []float64{1},
					WorkingSets: []uint64{tc.ws},
					MinSteps:    uint64(b.N) * 1000,
					MaxEdges:    1 << 24,
					Seed:        benchSeed,
				}, geom)
				if err != nil {
					b.Fatal(err)
				}
				for _, pt := range tab.Points {
					b.ReportMetric(pt.StepNS, pt.Policy.String()+"-ns/step")
				}
			})
		}
	}
}

// --- Figure 8a: DeepWalk across all graphs and systems ---

func BenchmarkFig8aGraphVite(b *testing.B) {
	for _, name := range []string{"YT", "TW", "FS", "UK", "YH"} {
		b.Run(name, func(b *testing.B) { runGraphVite(b, benchGraph(b, name), algo.DeepWalk()) })
	}
}

func BenchmarkFig8aKnightKing(b *testing.B) {
	for _, name := range []string{"YT", "TW", "FS", "UK", "YH"} {
		b.Run(name, func(b *testing.B) { runKnightKing(b, benchGraph(b, name), algo.DeepWalk()) })
	}
}

func BenchmarkFig8aFlashMob(b *testing.B) {
	for _, name := range []string{"YT", "TW", "FS", "UK", "YH"} {
		b.Run(name, func(b *testing.B) { runFlashMob(b, benchGraph(b, name), algo.DeepWalk(), nil) })
	}
}

// --- Figure 8b: node2vec, KnightKing vs FlashMob ---

func BenchmarkFig8bKnightKing(b *testing.B) {
	for _, name := range []string{"YT", "FS", "YH"} {
		b.Run(name, func(b *testing.B) { runKnightKing(b, benchGraph(b, name), algo.Node2Vec(2, 0.5)) })
	}
}

func BenchmarkFig8bFlashMob(b *testing.B) {
	for _, name := range []string{"YT", "FS", "YH"} {
		b.Run(name, func(b *testing.B) { runFlashMob(b, benchGraph(b, name), algo.Node2Vec(2, 0.5), nil) })
	}
}

// --- Figure 9b: planner comparison ---

func BenchmarkFig9bPlanners(b *testing.B) {
	g := benchGraph(b, "FS")
	for _, tc := range []struct {
		name string
		kind core.PlannerKind
	}{
		{"MCKP", core.PlannerMCKP},
		{"UniformPS", core.PlannerUniformPS},
		{"UniformDS", core.PlannerUniformDS},
		{"Manual", core.PlannerManual},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runFlashMob(b, g, algo.DeepWalk(), func(c *core.Config) { c.Planner = tc.kind })
		})
	}
}

// --- Figure 11a: growing |V| with the YH degree shape ---

func BenchmarkFig11aScaling(b *testing.B) {
	yh, err := gen.PresetByName("YH")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []uint32{20_000, 40_000, 80_000} {
		b.Run(fmt.Sprintf("V%d", n), func(b *testing.B) {
			g, err := gen.PowerLaw(gen.PowerLawConfig{
				NumVertices: n,
				AvgDegree:   yh.AvgDegree,
				Alpha:       gen.FitAlpha(n, yh.AvgDegree, 1, 0.01, yh.Top1EdgeShare),
				MinDegree:   1,
				Seed:        benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			runFlashMob(b, g, algo.DeepWalk(), nil)
		})
	}
}

// --- Figure 11b: walker-density sweep on TW ---

func BenchmarkFig11bDensity(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, mul := range []uint64{1, 4, 16} {
		b.Run(fmt.Sprintf("%dxV", mul), func(b *testing.B) {
			walkers := uint64(g.NumVertices()) * mul
			e, err := core.New(g, algo.DeepWalk(), core.Config{
				Seed:  benchSeed,
				Model: hostCostModel(),
				Part:  part.Config{Walkers: walkers},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var perStep float64
			for i := 0; i < b.N; i++ {
				res, err := e.Run(walkers, benchSteps)
				if err != nil {
					b.Fatal(err)
				}
				perStep = res.PerStepNS()
			}
			b.ReportMetric(perStep, "ns/step")
		})
	}
}

// --- Figure 12: NUMA modes (simulated remote-access rate) ---

func BenchmarkFig12NUMA(b *testing.B) {
	geom := mem.ScaledGeometry(64)
	model := profile.NewAnalyticalModel(geom)
	g := benchGraph(b, "FS")
	walkers := int(g.NumVertices())
	plan, err := part.PlanMCKP(g, part.Config{Walkers: uint64(walkers), Model: model})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode sim.NumaMode
	}{
		{"Partitioned", sim.NumaPartitioned},
		{"Replicated", sim.NumaReplicated},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				fm, err := sim.NewFlashMobSim(g, plan, geom, benchSeed, tc.mode)
				if err != nil {
					b.Fatal(err)
				}
				rep, err = fm.Run(walkers, 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.RemoteAccessesPerStep(), "remote/step")
			b.ReportMetric(rep.TotalBoundNSPerStep(), "bound-ns/step")
		})
	}
}

// --- Table 5 counterpart: simulated case study on FS ---

func BenchmarkTable5Simulated(b *testing.B) {
	geom := mem.ScaledGeometry(64)
	model := profile.NewAnalyticalModel(geom)
	g := benchGraph(b, "FS")
	walkers := int(g.NumVertices())
	b.Run("KnightKing", func(b *testing.B) {
		var rep *sim.Report
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = sim.NewKnightKingSim(g, geom, benchSeed).Run(walkers, 2)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.TotalBoundNSPerStep(), "bound-ns/step")
		b.ReportMetric(rep.DRAMBytesPerStep(), "DRAMB/step")
	})
	b.Run("FlashMob", func(b *testing.B) {
		plan, err := part.PlanMCKP(g, part.Config{Walkers: uint64(walkers), Model: model})
		if err != nil {
			b.Fatal(err)
		}
		var rep *sim.Report
		for i := 0; i < b.N; i++ {
			fm, err := sim.NewFlashMobSim(g, plan, geom, benchSeed, sim.NumaNone)
			if err != nil {
				b.Fatal(err)
			}
			rep, err = fm.Run(walkers, 2)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.TotalBoundNSPerStep(), "bound-ns/step")
		b.ReportMetric(rep.DRAMBytesPerStep(), "DRAMB/step")
	})
}

// --- Pre-processing (§5.2): degree sort and MCKP planning ---

func BenchmarkPrepDegreeSort(b *testing.B) {
	g := benchGraph(b, "YH")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.SortByDegreeDesc(g)
	}
}

func BenchmarkPrepMCKPPlan(b *testing.B) {
	g := benchGraph(b, "YH")
	model := hostCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := part.PlanMCKP(g, part.Config{Walkers: uint64(g.NumVertices()), Model: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benchmarks: the pipeline stages in isolation ---

// BenchmarkComponentShuffle times the engine's shuffle (fwd, rev and
// total ns/walker) per worker count at benchV scale. Note the regime:
// 40K walkers are cache-resident, where the staged gather shows its copy
// overhead but not its DRAM-miss savings — the representative
// measurement is `make bench-shuffle` (fmbench -exp shuffle), which runs
// 2^26 walkers and records BENCH_shuffle.json.
func BenchmarkComponentShuffle(b *testing.B) {
	g := benchGraph(b, "FS")
	plan, err := part.PlanUniform(g, part.Config{MaxBins: 2048}, profile.DS)
	if err != nil {
		b.Fatal(err)
	}
	walkers := int(g.NumVertices())
	w := make([]graph.VID, walkers)
	sw := make([]graph.VID, walkers)
	next := make([]graph.VID, walkers)
	for i := range w {
		w[i] = graph.VID(uint32(i) % g.NumVertices())
	}
	workerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := pool.New(workers)
			defer p.Close()
			sh, err := walk.NewShuffler(plan, walkers, p)
			if err != nil {
				b.Fatal(err)
			}
			var fwd, rev time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := sh.Forward(w, sw, nil, nil); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := sh.Reverse(w, sw, next, nil, nil); err != nil {
					b.Fatal(err)
				}
				fwd += t1.Sub(t0)
				rev += time.Since(t1)
			}
			per := float64(b.N) * float64(walkers)
			b.ReportMetric(float64(fwd.Nanoseconds())/per, "fwd-ns/walker")
			b.ReportMetric(float64(rev.Nanoseconds())/per, "rev-ns/walker")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/walker")
		})
	}
}

// BenchmarkComponentPaths times path extraction (pathsOf: the tiled
// transpose of a recorded history, relabelled to original vertex IDs as
// it goes) in ns per path element, on a synthetic history shaped like a
// bulk DeepWalk job: walkers × (steps+1) positions skewed toward the
// low, high-degree IDs of a degree-sorted numbering, and a uniformly
// random renumbering map twice the walker count. At 2M walkers the rows
// and the map are well past the LLC of most hosts.
func BenchmarkComponentPaths(b *testing.B) {
	for _, shape := range []struct {
		walkers, rows int
		vertices      uint32
	}{
		{benchV, benchSteps + 1, 2 * benchV},
		{1 << 21, 6, 1 << 22},
	} {
		b.Run(fmt.Sprintf("walkers=%d/rows=%d", shape.walkers, shape.rows), func(b *testing.B) {
			src := rng.NewXorShift64Star(benchSeed)
			rows := make([][]graph.VID, shape.rows)
			for i := range rows {
				rows[i] = make([]graph.VID, shape.walkers)
				for j := range rows[i] {
					r := rng.Float64(src)
					rows[i][j] = graph.VID(r * r * float64(shape.vertices))
				}
			}
			h, err := walk.NewHistory(rows)
			if err != nil {
				b.Fatal(err)
			}
			newToOld := make([]VID, shape.vertices)
			for v := range newToOld {
				newToOld[v] = VID(v)
			}
			for i := len(newToOld) - 1; i > 0; i-- {
				k := rng.Uint32n(src, uint32(i+1))
				newToOld[i], newToOld[k] = newToOld[k], newToOld[i]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				paths, err := pathsOf(h, newToOld)
				if err != nil {
					b.Fatal(err)
				}
				benchPaths = paths
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(shape.walkers*shape.rows)), "ns/elem")
		})
	}
}

// benchPaths keeps BenchmarkComponentPaths' result live.
var benchPaths [][]VID

func BenchmarkComponentMT19937VsXorshift(b *testing.B) {
	// The §5.2 RNG observation: MT ≫ xorshift* in compute cost.
	b.Run("MT19937", func(b *testing.B) {
		src := rng.NewMT19937(benchSeed)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += src.Uint64()
		}
		_ = sink
	})
	b.Run("XorShift64Star", func(b *testing.B) {
		src := rng.NewXorShift64Star(benchSeed)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += src.Uint64()
		}
		_ = sink
	})
}
