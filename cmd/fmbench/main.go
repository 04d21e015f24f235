// Command fmbench regenerates every table and figure of the paper's
// evaluation on synthetic stand-in graphs (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	fmbench -exp fig8a                 # one experiment
//	fmbench -exp all                   # everything (minutes)
//	fmbench -exp table2 -targetv 50000 # smaller graphs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// benchConfig is shared by all experiments.
type benchConfig struct {
	// TargetV scales each preset graph to about this many vertices.
	TargetV uint32
	// Steps is the walk length used by timing experiments.
	Steps int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the thread count for real-engine runs.
	Workers int
	// GeomScale divides the simulated cache geometry for trace-driven
	// experiments, so scaled-down graphs keep the paper's graph:cache
	// size ratios.
	GeomScale uint64
	// MinSteps is the per-point budget for micro-benchmarks.
	MinSteps uint64
	// MinCSR floors the CSR footprint of preset graphs in wall-clock
	// experiments, keeping "huge graph" cases DRAM-resident on the host
	// (0 disables).
	MinCSR uint64
	// ProfMaxEdges caps the synthetic-partition size of profiling
	// micro-benchmarks (memory safety on small hosts).
	ProfMaxEdges uint64
	// Repeats is how many times measurement-style experiments rerun each
	// configuration; their BENCH_*.json output then records mean and
	// standard deviation across the repeats. The -repeats flag is
	// validated to be >= 1 up front; the zero value (in-process callers
	// like the test harness) still behaves as 1.
	Repeats int
}

type experiment struct {
	name string
	desc string
	run  func(w io.Writer, cfg benchConfig) error
}

var experiments = []experiment{
	{"table1", "load latency: sequential/random/pointer-chase across the hierarchy (measured on host + paper reference)", expTable1},
	{"table2", "DeepWalk visit statistics by degree group on all five graph presets", expTable2},
	{"table4", "graph datasets (synthetic stand-ins vs paper)", expTable4},
	{"table5", "memory-hierarchy profiling case study on FS and UK (simulated)", expTable5},
	{"fig1a", "per-step time: KnightKing on cache-sized toys + YT/YH vs FlashMob on YT/YH", expFig1a},
	{"fig1b", "per-step cache miss breakdown: KnightKing vs FlashMob on YT/YH (simulated)", expFig1b},
	{"fig6", "sample-stage cost vs degree/cache level/density for PS and DS (measured)", expFig6},
	{"fig8a", "DeepWalk per-step time: GraphVite vs KnightKing vs FlashMob on five graphs", expFig8a},
	{"fig8b", "node2vec per-step time: KnightKing vs FlashMob on five graphs", expFig8b},
	{"fig9a", "FlashMob walk-time breakdown: sample/shuffle/other", expFig9a},
	{"fig9b", "planner comparison: MCKP DP vs Uniform-PS/DS vs Manual", expFig9b},
	{"fig10", "DP-identified partition layout per graph (VP sizes and policies)", expFig10},
	{"fig11a", "FlashMob speed vs growing |V| (YH-shaped synthetic graphs)", expFig11a},
	{"fig11b", "FlashMob speed vs walker count (density sweep on TW)", expFig11b},
	{"fig12", "NUMA modes: FlashMob-P vs FlashMob-R (time, density, remote accesses)", expFig12},
	{"shuffle", "§4.3 shuffle stage at DRAM scale: the engine's shuffle per worker count + end-to-end split (writes BENCH_shuffle.json)", expShuffle},
	{"sample", "§4.2 sample stage at DRAM scale: per-partition kernels across partition classes (writes BENCH_sample.json)", expSample},
	{"concurrent", "concurrent sessions on one engine build: aggregate walker-steps/s vs session count (writes BENCH_concurrent.json)", expConcurrent},
	{"serve", "walk-query serving: open-loop load on batch-size-1 vs coalescing windows (writes BENCH_serve.json)", expServe},
	{"mixed", "mixed-algorithm serving: one mixed-cohort run per wave vs one run per request (MaxBatchRequests 1) (writes BENCH_mixed.json)", expMixed},
	{"shard", "sharded topology sweep: shard count x transport (chan, TCP pair) vs the single engine on identical cohorts (writes BENCH_shard.json)", expShard},
	{"dynamic", "ingest-under-load: walk goodput and tail latency while an edge stream freezes epochs and compactions swap the engine (writes BENCH_dynamic.json)", expDynamic},
	{"prep", "pre-processing overhead: counting sort + MCKP planning", expPrep},
	{"ooc", "out-of-core streaming: double-buffered block reads across sample workers and the resident tier, beside the in-memory ns/step (§4.5 future work)", expOOC},
	{"ablate", "design-choice ablations: LLC policy, prefetcher, regular DS indexing (simulated)", expAblate},
	{"report", "observability demo: one metered DeepWalk run, annotated counters + full JSON report (docs/OBSERVABILITY.md)", expReport},
}

func main() {
	var (
		expFlag = flag.String("exp", "", "experiment name(s), comma separated, or 'all'")
		targetV = flag.Uint("targetv", 100_000, "approximate vertex count for scaled preset graphs")
		steps   = flag.Int("steps", 16, "walk length for timing experiments")
		seed    = flag.Uint64("seed", 42, "seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
		minCSR  = flag.Uint64("mincsr", 48<<20, "minimum CSR bytes for DRAM-resident wall-clock experiments")
		repeats = flag.Int("repeats", 1, "repeat each measured configuration N times; BENCH_*.json records mean/std")
		metrics = flag.String("metrics", "", "write a JSON metrics report for every engine-backed run to this file (see docs/OBSERVABILITY.md)")
		outdir  = flag.String("outdir", ".", "directory BENCH_*.json artifacts are written into (created if missing)")
		list    = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()

	if err := validateFlags(*repeats, *steps, *workers, *targetV); err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: -outdir: %v\n", err)
		os.Exit(2)
	}
	benchOutDir = *outdir

	if *metrics != "" {
		collector = &metricsCollector{}
	}

	if *list || *expFlag == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.desc)
		}
		if *expFlag == "" {
			os.Exit(2)
		}
		return
	}

	cfg := benchConfig{
		TargetV:      uint32(*targetV),
		Steps:        *steps,
		Seed:         *seed,
		Workers:      *workers,
		GeomScale:    64,
		MinSteps:     300_000,
		MinCSR:       *minCSR,
		ProfMaxEdges: 1 << 26,
		Repeats:      *repeats,
	}

	names := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e, ok := findExperiment(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "fmbench: unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		collector.setExperiment(e.name)
		if err := e.run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *metrics != "" {
		if err := collector.writeFile(*metrics); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: writing -metrics file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics report written to %s\n", *metrics)
	}
}

// validateFlags rejects nonsensical flag combinations before any
// experiment runs. -repeats in particular used to coerce 0 to 1
// silently inside each experiment while the flag's stated contract was
// "repeat N times" — now every out-of-range value is a usage error up
// front, so a typo cannot quietly record a single-run artifact that
// claims repeat semantics.
func validateFlags(repeats, steps, workers int, targetV uint) error {
	if repeats < 1 {
		return fmt.Errorf("-repeats %d: must be >= 1", repeats)
	}
	if steps < 1 {
		return fmt.Errorf("-steps %d: must be >= 1", steps)
	}
	if workers < 1 {
		return fmt.Errorf("-workers %d: must be >= 1", workers)
	}
	if targetV == 0 {
		return fmt.Errorf("-targetv 0: must be >= 1")
	}
	if targetV > 1<<31 {
		return fmt.Errorf("-targetv %d: exceeds the 2^31 vertex-ID space", targetV)
	}
	return nil
}

func findExperiment(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}
