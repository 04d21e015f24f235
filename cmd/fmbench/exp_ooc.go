package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/ooc"
)

// oocVariant is one measured out-of-core configuration, aggregated over
// -repeats runs of the same engine.
type oocVariant struct {
	Name           string  `json:"name"`
	Workers        int     `json:"workers"`
	ResidentBudget uint64  `json:"resident_budget_bytes"`
	ResidentBytes  uint64  `json:"resident_bytes"`
	ResidentParts  int     `json:"resident_partitions"`
	NSPerStep      float64 `json:"ns_per_step"`
	NSPerStepStd   float64 `json:"ns_per_step_std"`
	IOWaitShare    float64 `json:"io_wait_share"`
	IOWaitShareStd float64 `json:"io_wait_share_std"`
	StreamMBps     float64 `json:"stream_mb_per_sec"`
	BytesRead      uint64  `json:"bytes_read"`
	Blocks         uint64  `json:"blocks_read"`
	ResidentHits   uint64  `json:"resident_hits"`
	Speedup        float64 `json:"speedup_vs_baseline"`
}

// oocReport is the schema of BENCH_ooc.json: the streaming engine's
// per-step cost across sample workers and the resident-tier budget,
// beside the in-memory engine's.
type oocReport struct {
	Experiment  string       `json:"experiment"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Graph       string       `json:"graph"`
	Walkers     uint64       `json:"walkers"`
	Steps       int          `json:"steps"`
	BlockBudget uint64       `json:"block_budget_bytes"`
	CSRBytes    uint64       `json:"csr_bytes"`
	Repeats     int          `json:"repeats"`
	ColdCache   bool         `json:"cold_cache"`
	InMemNS     float64      `json:"in_memory_ns_per_step"`
	Variants    []oocVariant `json:"variants"`
}

// expOOC measures the paper's future-work direction (§4.5, §7): walking a
// disk-resident graph by streaming its edge blocks through a small DRAM
// window, double-buffered so one block is sampled while the next is
// read. The variants are one sample worker, cfg.Workers sample workers,
// and cfg.Workers with a resident tier pinning the hottest blocks in RAM
// (a quarter of the CSR); each is recorded beside the in-memory engine's
// ns/step in BENCH_ooc.json, with speedups relative to the first.
// Trajectories are identical across every variant (and to the in-memory
// engine; see internal/ooc's equivalence suite).
func expOOC(w io.Writer, cfg benchConfig) error {
	const graphName = "YT"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	inMem, err := timeFlashMob(g, algo.DeepWalk(), cfg, nil)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "fmbench-ooc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, graphName+".bin")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	// Flush dirty pages so DropCache below can actually evict them.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	gf, err := graph.OpenFile(path)
	if err != nil {
		return err
	}
	defer gf.Close()

	// Budget: 1/8 of the graph resident at a time, floored so the largest
	// single adjacency list still fits a (double-buffered) block.
	budget := g.SizeBytes() / 8
	if floor := uint64(g.MaxDegree()) * graph.VIDBytes * 4; budget < floor {
		budget = floor
	}
	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	csrBytes := g.SizeBytes()

	// Measure the steady out-of-core state: the graph file was just
	// written, so its pages are cache-hot, and warm "reads" are memcpys
	// that neither block nor overlap — the opposite of the disk-resident
	// regime this experiment models. ooc.Config.ColdCache evicts before
	// every step; probe once here so a platform that cannot evict
	// (non-Linux) records the warm-cache fallback.
	coldCache := gf.DropCache() == nil

	rep := oocReport{
		Experiment:  "ooc",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Graph:       graphName,
		Walkers:     uint64(g.NumVertices()),
		Steps:       cfg.Steps,
		BlockBudget: budget,
		CSRBytes:    csrBytes,
		Repeats:     reps,
		ColdCache:   coldCache,
		InMemNS:     inMem,
	}

	variants := []oocVariant{
		{Name: "workers1", Workers: 1},
		{Name: "workersN", Workers: cfg.Workers},
		{Name: "workersN-resident", Workers: cfg.Workers, ResidentBudget: csrBytes / 4},
	}

	fmt.Fprintf(w, "graph %s (%d MiB CSR), block budget %d KiB, in-mem %.1f ns/step, x%d repeats\n\n",
		graphName, csrBytes>>20, budget>>10, inMem, reps)
	row(w, "variant", "ns/step", "std", "io-wait", "stream MB/s", "blocks", "resident", "speedup")
	var base float64
	for i := range variants {
		v := &variants[i]
		e, err := ooc.New(gf, ooc.Config{
			BlockBudget:    budget,
			Seed:           cfg.Seed,
			Workers:        v.Workers,
			ResidentBudget: v.ResidentBudget,
			ColdCache:      coldCache,
			Metrics:        collector != nil,
		})
		if err != nil {
			return err
		}
		collector.register(e.MetricsReport)
		v.ResidentBytes = e.ResidentBytes()
		v.ResidentParts = e.ResidentPartitions()

		perStep := make([]float64, 0, reps)
		waitShare := make([]float64, 0, reps)
		var last *ooc.Result
		for r := 0; r < reps; r++ {
			res, err := e.Run(context.Background(), 0, cfg.Steps)
			if err != nil {
				e.Close()
				return err
			}
			perStep = append(perStep, res.PerStepNS())
			waitShare = append(waitShare, res.IOWait.Seconds()/res.Duration.Seconds())
			last = res
		}
		e.Close()
		v.NSPerStep, v.NSPerStepStd = meanStd(perStep)
		v.IOWaitShare, v.IOWaitShareStd = meanStd(waitShare)
		v.BytesRead = last.BytesRead
		v.Blocks = last.Blocks
		v.ResidentHits = last.ResidentHits
		v.StreamMBps = last.StreamBandwidth() / (1 << 20)
		if base == 0 {
			base = v.NSPerStep
		}
		v.Speedup = base / v.NSPerStep
		row(w, v.Name, ns(v.NSPerStep), ns(v.NSPerStepStd), pct(v.IOWaitShare),
			fmt.Sprintf("%.0f", v.StreamMBps), big(v.Blocks), big(v.ResidentHits),
			fmt.Sprintf("%.2fx", v.Speedup))
	}
	rep.Variants = variants

	return writeBenchJSON(w, "BENCH_ooc.json", rep)
}
