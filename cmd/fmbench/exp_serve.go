package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

// serveVariant is one measured server configuration under the same
// open-loop load.
type serveVariant struct {
	Name             string  `json:"name"`
	WindowMS         float64 `json:"window_ms"`
	MaxBatchRequests int     `json:"max_batch_requests"`
	Offered          int     `json:"offered_requests"`
	loadStats
	MeanBatch float64 `json:"mean_batch_requests"`
	Speedup   float64 `json:"goodput_vs_batch1"`
}

// serveReport is the schema of BENCH_serve.json.
type serveReport struct {
	Experiment string         `json:"experiment"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Graph      string         `json:"graph"`
	Workers    int            `json:"workers"`
	Steps      int            `json:"steps"`
	MixWalkers []int          `json:"mix_walkers"`
	OfferedQPS float64        `json:"offered_qps"`
	Repeats    int            `json:"repeats"`
	Variants   []serveVariant `json:"variants"`
}

// foldServeRepeats collapses per-repeat measurements of one variant into
// one record: foldLoad for the load stats, the mean batch size as a
// per-repeat mean.
func foldServeRepeats(runs []serveVariant) serveVariant {
	v := runs[0]
	v.loadStats = foldLoad(column(runs, func(r serveVariant) loadStats { return r.loadStats }))
	v.MeanBatch = meanOf(runs, func(r serveVariant) float64 { return r.MeanBatch })
	return v
}

// expServe measures what micro-batching buys a walk-query service: the
// same open-loop request mix is offered — at ~3× the no-coalescing
// capacity, calibrated on this host — to a batch-size-1 server (every
// request its own engine run) and to coalescing servers at several
// batching windows. The coalescing servers amortize per-run overhead
// across the batch, so they serve the same load with higher goodput and
// a tail no worse; the batch-size-1 server saturates and sheds.
func expServe(w io.Writer, cfg benchConfig) error {
	const graphName = "YT"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	mix := []int{8, 32, 128}

	// Calibrate: median solo-request latency on a batch-size-1 server
	// bounds its capacity at Executors/latency requests per second.
	const executors = 2
	solo, err := soloLatency(func() (*loadServer, error) {
		return newServeServer(g, cfg, time.Millisecond, 1, executors)
	}, mix, cfg.Steps)
	if err != nil {
		return err
	}
	capacity := float64(executors) / solo.Seconds()
	qps := 3 * capacity
	// Bound the run: 2 seconds of offered load, at least 200 requests so
	// percentiles mean something, at most 3000 so slow hosts finish.
	offered := int(qps * 2)
	if offered < 200 {
		offered = 200
	}
	if offered > 3000 {
		offered = 3000
	}
	fmt.Fprintf(w, "calibration: solo run %.2fms -> batch-size-1 capacity ~%.0f req/s; offering %.0f req/s (%d requests)\n\n",
		float64(solo)/float64(time.Millisecond), capacity, qps, offered)

	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	rep := serveReport{
		Experiment: "serve",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graph:      graphName,
		Workers:    cfg.Workers,
		Steps:      cfg.Steps,
		MixWalkers: mix,
		OfferedQPS: qps,
		Repeats:    reps,
	}

	type variantCfg struct {
		name   string
		window time.Duration
		maxReq int
	}
	variants := []variantCfg{
		{"batch1", time.Millisecond, 1},
		{"window-1ms", time.Millisecond, 0},
		{"window-4ms", 4 * time.Millisecond, 0},
		{"window-16ms", 16 * time.Millisecond, 0},
	}

	row(w, "variant", "served", "shed", "req/s", "goodput", "p50-ms", "p99-ms", "batch", "vs-b1")
	var base float64
	for _, vc := range variants {
		runs := make([]serveVariant, 0, reps)
		for r := 0; r < reps; r++ {
			one, err := runServeVariant(g, cfg, vc.name, vc.window, vc.maxReq, executors, mix, qps, offered)
			if err != nil {
				return err
			}
			runs = append(runs, one)
		}
		v := foldServeRepeats(runs)
		if base == 0 {
			base = v.Goodput
		}
		v.Speedup = v.Goodput / base
		rep.Variants = append(rep.Variants, v)
		row(w, v.Name, big(uint64(v.Served)), big(uint64(v.Shed)),
			fmt.Sprintf("%.0f", v.ReqPerSec), fmt.Sprintf("%.2fM", v.Goodput/1e6),
			f2(v.P50MS), f2(v.P99MS), f2(v.MeanBatch), fmt.Sprintf("%.2fx", v.Speedup))
	}

	return writeBenchJSON(w, "BENCH_serve.json", rep)
}

// newServeServer builds a fresh DeepWalk system behind a serve.Server
// (which owns and closes it) on an ephemeral port.
func newServeServer(fg *flashmob.Graph, cfg benchConfig, window time.Duration, maxReq, executors int) (*loadServer, error) {
	spec := flashmob.DeepWalk()
	sys, err := flashmob.New(fg, flashmob.Options{
		Algorithm: spec, Workers: cfg.Workers, Seed: cfg.Seed, RecordPaths: true,
	})
	if err != nil {
		return nil, err
	}
	return startServer([]serve.Backend{{Name: "deepwalk", Sys: sys, Spec: spec}}, serve.Config{
		MaxWait:          window,
		MaxBatchRequests: maxReq,
		Executors:        executors,
		Seed:             cfg.Seed,
	}, sys.Close)
}

// runServeVariant offers the open-loop load to one server configuration
// and folds the client-side observations into a serveVariant.
func runServeVariant(fg *flashmob.Graph, cfg benchConfig, name string, window time.Duration, maxReq, executors int, mix []int, qps float64, offered int) (serveVariant, error) {
	ls, err := newServeServer(fg, cfg, window, maxReq, executors)
	if err != nil {
		return serveVariant{}, err
	}
	defer ls.Close()
	// Warm the engine (first-touch faults, session pool) off the clock.
	if _, err := ls.post(serve.WalkRequest{Walkers: 64, Steps: cfg.Steps}); err != nil {
		return serveVariant{}, err
	}
	results, wall := ls.openLoop(offered, qps, mix, cfg.Steps)
	v := serveVariant{
		Name:             name,
		WindowMS:         float64(window) / float64(time.Millisecond),
		MaxBatchRequests: maxReq,
		Offered:          offered,
		loadStats:        tallyLoad(results, wall),
	}
	if h, ok := ls.srv.Metrics().Histogram("serve_batch_requests"); ok && h.Count > 0 {
		v.MeanBatch = float64(h.Sum) / float64(h.Count)
	}
	return v, nil
}
