package main

import (
	"fmt"
	"io"
	"runtime"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// sampleWalkers sizes the component measurement so the walker arrays
// (3 × 4 B × walkers ≈ 200 MB plus shuffle staging) overflow the L3: the
// §4.2 sample stage is only interesting in the paper's regime, where the
// walker chunks stream through DRAM and the partition working set is what
// cache residency buys. Smoke runs (MinCSR == 0, as the test harness
// uses) shrink to sampleSmokeWalkers so the suite stays fast.
const (
	sampleWalkers      = 1 << 24
	sampleSmokeWalkers = 1 << 16
)

// sampleVariant is one measured sample-stage configuration.
type sampleVariant struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"`
	// Walkers is the run's walker count: the report's, raised to the
	// engine's sparse switch where that is higher, so a PS workload
	// binds the plan's PS kernels and not the sparse template's DS ones.
	Walkers uint64 `json:"walkers"`
	// SampleNS is the sample-stage cost per walker-step — the number the
	// kernels exist to shrink.
	SampleNS float64 `json:"sample_ns_per_step"`
	// TotalNS is the full-pipeline cost per walker-step, for context.
	TotalNS float64 `json:"total_ns_per_step"`
}

// sampleReport is the schema of BENCH_sample.json.
type sampleReport struct {
	Experiment string          `json:"experiment"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Walkers    uint64          `json:"walkers"`
	Steps      int             `json:"steps"`
	Variants   []sampleVariant `json:"variants"`
}

// sampleWorkload pins one partition class: a graph plus the spec and
// planner that make the engine select the kernel under test.
type sampleWorkload struct {
	name  string
	build func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error)
}

// attachWeights gives a generated graph deterministic pseudo-random
// positive edge weights (the generators only emit unweighted CSRs).
func attachWeights(g *graph.CSR, seed uint64) {
	src := rng.NewXorShift1024Star(seed)
	w := make([]float32, len(g.Targets))
	for i := range w {
		w[i] = 0.25 + float32(src.Float64())
	}
	g.Weights = w
}

func sampleWorkloads() []sampleWorkload {
	return []sampleWorkload{
		{"PS", func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error) {
			g, err := presetGraphSized("FS", cfg, cfg.MinCSR)
			return g, algo.DeepWalk(), core.PlannerUniformPS, err
		}},
		{"DS-regular", func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error) {
			// Uniform degree 16 → every partition takes the
			// arithmetic-indexing kernel. Size the vertex count so the CSR
			// matches the preset floor (72 B/vertex at d=16).
			v := cfg.TargetV
			if cfg.MinCSR > 0 {
				if need := uint32(cfg.MinCSR / 72); need > v {
					v = need
				}
			}
			g, err := gen.UniformDegree(v, 16, cfg.Seed)
			return g, algo.DeepWalk(), core.PlannerUniformDS, err
		}},
		{"DS-CSR", func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error) {
			g, err := presetGraphSized("FS", cfg, cfg.MinCSR)
			return g, algo.DeepWalk(), core.PlannerUniformDS, err
		}},
		{"weighted", func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error) {
			g, err := presetGraphSized("FS", cfg, cfg.MinCSR)
			if err != nil {
				return nil, algo.Spec{}, 0, err
			}
			attachWeights(g, cfg.Seed+3)
			spec := algo.DeepWalk()
			spec.Weighted = true
			return g, spec, core.PlannerMCKP, err
		}},
		{"node2vec", func(cfg benchConfig) (*graph.CSR, algo.Spec, core.PlannerKind, error) {
			g, err := presetGraphSized("FS", cfg, cfg.MinCSR)
			return g, algo.Node2Vec(2, 0.5), core.PlannerMCKP, err
		}},
	}
}

// expSample measures the §4.2 sample stage at DRAM scale: the
// per-partition kernels across worker counts and the partition classes
// {PS, DS-regular, DS-CSR, weighted, node2vec}.
// The metric is sample-stage nanoseconds per walker-step from the
// engine's stage split, so shuffle cost is excluded. Results land in
// BENCH_sample.json next to the table.
func expSample(w io.Writer, cfg benchConfig) error {
	walkers := uint64(sampleWalkers)
	steps := 3
	if cfg.MinCSR == 0 {
		walkers = sampleSmokeWalkers
		steps = 2
	}
	rep := sampleReport{
		Experiment: "sample",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Walkers:    walkers,
		Steps:      steps,
	}

	workerCounts := []int{1}
	if cfg.Workers != 1 {
		workerCounts = append(workerCounts, cfg.Workers)
	}

	row(w, "workload", "workers", "sample-ns/step", "total-ns/step")
	for _, wl := range sampleWorkloads() {
		g, spec, planner, err := wl.build(cfg)
		if err != nil {
			return err
		}
		for _, workers := range workerCounts {
			e, err := flashMobEngine(g, spec, cfg, func(c *core.Config) {
				c.Workers = workers
				c.Planner = planner
			})
			if err != nil {
				return err
			}
			n := max(walkers, e.SparseSwitch())
			res, err := e.Run(n, steps)
			e.Close()
			if err != nil {
				return err
			}
			v := sampleVariant{
				Workload: wl.name,
				Workers:  workers,
				Walkers:  n,
				SampleNS: float64(res.SampleTime.Nanoseconds()) / float64(res.TotalSteps),
				TotalNS:  res.PerStepNS(),
			}
			rep.Variants = append(rep.Variants, v)
			row(w, wl.name, fmt.Sprintf("%d", workers), ns(v.SampleNS), ns(v.TotalNS))
		}
		// Free the workload's graph (and any engine-sized state) before
		// the next one allocates.
		g = nil
		runtime.GC()
	}

	return writeBenchJSON(w, "BENCH_sample.json", rep)
}
