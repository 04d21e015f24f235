// Command flashmob runs a random walk over a graph file (binary CSR or
// text edge list) or a generated preset, printing per-step speed, the
// partition plan summary, and the pipeline time breakdown.
//
// Usage:
//
//	flashmob -graph yt.bin -algo deepwalk -walkers 0 -steps 80
//	flashmob -preset TW -scalediv 500 -algo node2vec -p 0.5 -q 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"flashmob"
	"flashmob/internal/graph"
	"flashmob/internal/ooc"
	"flashmob/internal/trace"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file (binary CSR or text edge list)")
		undirected  = flag.Bool("undirected", false, "treat edge-list input as undirected")
		preset      = flag.String("preset", "", "generate a paper-preset graph instead (YT/TW/FS/UK/YH)")
		scaleDiv    = flag.Uint("scalediv", 100, "preset downscale divisor")
		algoName    = flag.String("algo", "deepwalk", "walk algorithm: deepwalk, node2vec, pagerank")
		p           = flag.Float64("p", 1, "node2vec return parameter")
		q           = flag.Float64("q", 1, "node2vec in-out parameter")
		damping     = flag.Float64("damping", 0.85, "pagerank damping")
		walkers     = flag.Uint64("walkers", 0, "walker count (0 = |V|)")
		steps       = flag.Int("steps", 0, "steps per walker (0 = algorithm default)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
		seed        = flag.Uint64("seed", 42, "random seed")
		planner     = flag.String("planner", "mckp", "partition planner: mckp, uniform-ps, uniform-ds, manual (PS partitions direct-sample below the build's sparse switch, at most |V| walkers)")
		paths       = flag.Bool("paths", false, "record full paths (memory heavy)")
		oocMode     = flag.Bool("ooc", false, "out-of-core mode: stream the graph from disk (-graph must be a binary CSR; deepwalk only)")
		oocBudget   = flag.Uint64("oocbudget", 64<<20, "DRAM budget for streamed edge blocks in -ooc mode")
		oocResident = flag.Uint64("oocresident", 0, "DRAM budget for pinning hot partition blocks in -ooc mode (0 = off)")
		corpusOut   = flag.String("corpus", "", "write the walk corpus (one path per line) to this file; implies -paths")
		edgesOut    = flag.String("edgestream", "", "stream sampled edges to this file in binary format during the walk")
		planOut     = flag.String("saveplan", "", "write the partition plan as JSON to this file")
	)
	flag.Parse()

	if *oocMode {
		if *graphPath == "" {
			fatal(fmt.Errorf("-ooc requires -graph pointing at a binary CSR file"))
		}
		if err := runOOC(*graphPath, *oocBudget, *oocResident, *walkers, *steps, *workers, *seed); err != nil {
			fatal(err)
		}
		return
	}

	g, err := loadGraph(*graphPath, *preset, uint32(*scaleDiv), *seed, *undirected)
	if err != nil {
		fatal(err)
	}

	var spec flashmob.Algorithm
	switch *algoName {
	case "deepwalk":
		spec = flashmob.DeepWalk()
	case "node2vec":
		spec = flashmob.Node2Vec(*p, *q)
	case "pagerank":
		spec = flashmob.PageRankWalk(*damping)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	var plannerKind flashmob.Planner
	switch *planner {
	case "mckp":
		plannerKind = flashmob.PlannerMCKP
	case "uniform-ps":
		plannerKind = flashmob.PlannerUniformPS
	case "uniform-ds":
		plannerKind = flashmob.PlannerUniformDS
	case "manual":
		plannerKind = flashmob.PlannerManual
	default:
		fatal(fmt.Errorf("unknown planner %q", *planner))
	}

	fmt.Printf("graph: |V|=%d |E|=%d CSR=%.1fMB avgDeg=%.2f\n",
		g.NumVertices(), g.NumEdges(), float64(g.SizeBytes())/(1<<20), g.AvgDegree())

	opts := flashmob.Options{
		Algorithm:   spec,
		Workers:     *workers,
		Seed:        *seed,
		Planner:     plannerKind,
		RecordPaths: *paths || *corpusOut != "",
	}
	var streamWriter *trace.EdgeStreamWriter
	var streamFile *os.File
	if *edgesOut != "" {
		f, err := os.Create(*edgesOut)
		if err != nil {
			fatal(err)
		}
		sw, err := trace.NewEdgeStreamWriter(f)
		if err != nil {
			fatal(err)
		}
		streamWriter, streamFile = sw, f
		opts.EdgeStream = sw.Sink
	}

	sys, err := flashmob.New(g, opts)
	if err != nil {
		fatal(err)
	}
	if *planOut != "" {
		f, err := os.Create(*planOut)
		if err != nil {
			fatal(err)
		}
		if err := sys.PlanJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}
	plan := sys.Plan()
	fmt.Printf("plan: %d groups, %d VPs, %d shuffle bins, PS covers %d vertices, DS covers %d\n",
		plan.NumGroups, plan.NumVPs, plan.Bins, plan.PSVertices, plan.DSVertices)

	res, err := sys.Walk(*walkers, *steps)
	if err != nil {
		fatal(err)
	}
	tm := res.Timing()
	fmt.Printf("walk: %d walkers × %d steps in %d episode(s)\n",
		res.Walkers(), res.Steps(), res.Episodes())
	fmt.Printf("time: total %v (sample %v, shuffle %v, other %v)\n",
		tm.Total.Round(1e6), tm.Sample.Round(1e6), tm.Shuffle.Round(1e6), tm.Other.Round(1e6))
	fmt.Printf("per-step: %.1f ns\n", res.PerStepNS())

	if streamWriter != nil {
		if err := streamWriter.Close(); err != nil {
			fatal(err)
		}
		if err := streamFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("edge stream: %d edges written to %s\n", streamWriter.Edges(), *edgesOut)
	}
	if *corpusOut != "" {
		walkedPaths, err := res.Paths()
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*corpusOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteCorpusPaths(f, walkedPaths); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("corpus: %d paths written to %s\n", len(walkedPaths), *corpusOut)
	}
}

func loadGraph(path, preset string, scaleDiv uint32, seed uint64, undirected bool) (*flashmob.Graph, error) {
	switch {
	case path != "":
		return flashmob.LoadFile(path, undirected)
	case preset != "":
		return flashmob.Generate(preset, scaleDiv, seed)
	default:
		return nil, fmt.Errorf("one of -graph or -preset is required")
	}
}

// runOOC walks a disk-resident binary CSR with the out-of-core engine.
func runOOC(path string, budget, residentBudget uint64, walkers uint64, steps, workers int, seed uint64) error {
	gf, err := graph.OpenFile(path)
	if err != nil {
		return err
	}
	defer gf.Close()
	fmt.Printf("graph (on disk): |V|=%d |E|=%d\n", gf.NumVertices(), gf.NumEdges())
	before := runtime.NumGoroutine()
	e, err := ooc.New(gf, ooc.Config{
		BlockBudget: budget, Seed: seed, Workers: workers, ResidentBudget: residentBudget,
	})
	if err != nil {
		return err
	}
	fmt.Printf("plan: %d streaming partitions, block budget %.1fMB\n",
		e.Plan().NumVPs(), float64(budget)/(1<<20))
	if e.ResidentPartitions() > 0 {
		fmt.Printf("resident tier: %d partitions pinned, %.1fMB\n",
			e.ResidentPartitions(), float64(e.ResidentBytes())/(1<<20))
	}
	if steps == 0 {
		steps = 80
	}
	res, err := e.Run(context.Background(), walkers, steps)
	if err != nil {
		e.Close()
		return err
	}
	e.Close()
	fmt.Printf("walk: %d walkers × %d steps in %v\n", res.Walkers, res.Steps, res.Duration.Round(1e6))
	fmt.Printf("per-step: %.1f ns; %d blocks, streamed %.1fMB at %.0fMB/s (io-wait %v); resident hits %d\n",
		res.PerStepNS(), res.Blocks, float64(res.BytesRead)/(1<<20),
		res.StreamBandwidth()/(1<<20), res.IOWait.Round(1e6), res.ResidentHits)
	// Let the closed pool's goroutines unwind so the leak count is honest.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("goroutines leaked: %d\n", max(0, runtime.NumGoroutine()-before))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashmob: %v\n", err)
	os.Exit(1)
}
