package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

// mixedAlgos is the served algorithm mix: a uniform first-order walk, a
// second-order node2vec walk, and a PPR-style stochastic-termination
// walk — one backend each, all sharing one built system.
var mixedAlgos = []string{"deepwalk", "node2vec", "pagerank"}

// mixedVariant is one measured server configuration under the same
// closed-loop mixed-algorithm load, aggregated over repeats.
type mixedVariant struct {
	Name             string `json:"name"`
	MaxBatchRequests int    `json:"max_batch_requests"`
	loadStats
	RunsPerBatch  float64 `json:"runs_per_batch"`
	CohortsPerRun float64 `json:"mean_run_cohorts"`
	RunMS         float64 `json:"mean_run_ms"`
	Speedup       float64 `json:"goodput_vs_batch1"`
}

// mixedReport is the schema of BENCH_mixed.json.
type mixedReport struct {
	Experiment string         `json:"experiment"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Graph      string         `json:"graph"`
	Workers    int            `json:"workers"`
	Steps      int            `json:"steps"`
	Algorithms []string       `json:"algorithms"`
	MixWalkers []int          `json:"mix_walkers"`
	MixSteps   []int          `json:"mix_steps"`
	Clients    int            `json:"clients"`
	Requests   int            `json:"requests_per_repeat"`
	Repeats    int            `json:"repeats"`
	Variants   []mixedVariant `json:"variants"`
}

// expMixed measures what mixed-cohort execution buys a walk-query
// service under realistic heterogeneous traffic: the same closed-loop
// load — seeded (reproducible) uniform + node2vec + PPR requests of
// 8/32/128 walkers at 2x/4x/8x the configured step count — is served
// once by a MaxBatchRequests 1 server and once by a coalescing one,
// where a whole wave is one mixed-cohort engine run whatever algorithms
// and step counts it holds (shorter cohorts retire from the sweep
// early). Every request carries a seed because that is the traffic
// mixed execution exists for: a seeded request needs a private cohort
// (its trajectories may not depend on its neighbors), so without mixed
// runs it cannot coalesce at all — the fragmented baseline is one
// engine run per request, paying the session, walker-array, and
// partition-sweep overhead once per request, while the mixed server
// pays it once for the whole wave. Closed-loop clients keep both
// servers saturated, so the goodput ratio is the capacity ratio.
func expMixed(w io.Writer, cfg benchConfig) error {
	const graphName = "YH"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	mix := []int{8, 32, 128}
	// Embedding-style walk lengths: 32/64/128 at the default -steps 16,
	// centered on the 80-step standard of the DeepWalk/node2vec papers.
	stepsMix := []int{cfg.Steps * 2, cfg.Steps * 4, cfg.Steps * 8}
	for i := range stepsMix {
		if stepsMix[i] < 1 {
			stepsMix[i] = 1
		}
	}
	const (
		clients   = 36
		perClient = 16
		executors = 1
		batchCap  = clients
	)
	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	fmt.Fprintf(w, "closed loop: %d clients x %d requests, %d algorithms x %v walkers x %v steps, x%d repeats per variant\n\n",
		clients, perClient, len(mixedAlgos), mix, stepsMix, reps)

	rep := mixedReport{
		Experiment: "mixed",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graph:      graphName,
		Workers:    cfg.Workers,
		Steps:      cfg.Steps,
		Algorithms: mixedAlgos,
		MixWalkers: mix,
		MixSteps:   stepsMix,
		Clients:    clients,
		Requests:   clients * perClient,
		Repeats:    reps,
	}

	variants := []struct {
		name     string
		batchCap int
	}{
		{"batch1", 1},
		{"mixed", batchCap},
	}
	row(w, "variant", "served", "req/s", "goodput", "p50-ms", "p99-ms", "run-ms", "runs/batch", "cohorts/run", "vs-batch1")
	var base float64
	for _, vc := range variants {
		runs := make([]mixedVariant, 0, reps)
		for r := 0; r < reps; r++ {
			one, err := runMixedVariant(g, cfg, vc.name, clients, perClient, executors, vc.batchCap, mix, stepsMix)
			if err != nil {
				return err
			}
			runs = append(runs, one)
		}
		v := foldMixedRepeats(runs)
		if base == 0 {
			base = v.Goodput
		}
		v.Speedup = v.Goodput / base
		rep.Variants = append(rep.Variants, v)
		row(w, v.Name, big(uint64(v.Served)), fmt.Sprintf("%.0f", v.ReqPerSec),
			fmt.Sprintf("%.2fM", v.Goodput/1e6), f2(v.P50MS), f2(v.P99MS), f2(v.RunMS),
			f2(v.RunsPerBatch), f2(v.CohortsPerRun), fmt.Sprintf("%.2fx", v.Speedup))
	}

	return writeBenchJSON(w, "BENCH_mixed.json", rep)
}

// newMixedServeServer builds one shared system (DeepWalk build primary)
// serving all three algorithm backends — the cmd/fmserve shared-build
// topology — on an ephemeral port. Both variants share the build, so the
// batch1/mixed ratio isolates run fragmentation.
func newMixedServeServer(fg *flashmob.Graph, cfg benchConfig, executors, batchCap int) (*loadServer, error) {
	sys, err := flashmob.New(fg, flashmob.Options{
		Algorithm: flashmob.DeepWalk(), Workers: cfg.Workers, Seed: cfg.Seed, RecordPaths: true,
	})
	if err != nil {
		return nil, err
	}
	return startServer([]serve.Backend{
		{Name: "deepwalk", Sys: sys, Spec: flashmob.DeepWalk()},
		{Name: "node2vec", Sys: sys, Spec: flashmob.Node2Vec(4, 0.25)},
		{Name: "pagerank", Sys: sys, Spec: flashmob.PageRankWalk(0.85)},
	}, serve.Config{
		MaxWait:          10 * time.Millisecond,
		MaxBatchRequests: batchCap,
		Executors:        executors,
		Seed:             cfg.Seed,
	}, sys.Close)
}

// runMixedVariant drives one closed-loop repeat against a fresh server
// and folds the client- and server-side observations into a
// mixedVariant.
func runMixedVariant(fg *flashmob.Graph, cfg benchConfig, name string, clients, perClient, executors, batchCap int, mix, stepsMix []int) (mixedVariant, error) {
	ls, err := newMixedServeServer(fg, cfg, executors, batchCap)
	if err != nil {
		return mixedVariant{}, err
	}
	defer ls.Close()
	// Warm the engine and every backend off the clock.
	for _, a := range mixedAlgos {
		if _, err := ls.post(serve.WalkRequest{Walkers: 64, Steps: cfg.Steps, Algorithm: a}); err != nil {
			return mixedVariant{}, err
		}
	}

	results, wall := ls.closedLoop(clients, perClient, func(c, j int) serve.WalkRequest {
		// Closed-loop clients advance in near-lockstep (a wave releases
		// them together), so offset the rotations by client: at any
		// instant the client population covers all three algorithms at
		// all three step counts and walker sizes, and every mixed wave
		// carries its full per-(algorithm, steps) group spread.
		seed := uint64(1 + c*perClient + j) // reproducible queries: unique seed per request
		return serve.WalkRequest{
			Algorithm: mixedAlgos[(c+j)%len(mixedAlgos)],
			Steps:     stepsMix[(c/len(mixedAlgos)+2*j)%len(stepsMix)],
			Walkers:   mix[(c/len(mixedAlgos)+j)%len(mix)],
			Seed:      &seed,
		}
	})

	v := mixedVariant{Name: name, MaxBatchRequests: batchCap, loadStats: tallyLoad(results, wall)}
	m := ls.srv.Metrics()
	runsC, _ := m.Counter("serve_runs_total")
	batchesC, _ := m.Counter("serve_batches_total")
	if batchesC.Value > 0 {
		v.RunsPerBatch = float64(runsC.Value) / float64(batchesC.Value)
	}
	if h, ok := m.Histogram("serve_run_cohorts"); ok && h.Count > 0 {
		v.CohortsPerRun = float64(h.Sum) / float64(h.Count)
	}
	if h, ok := m.Histogram("serve_batch_run_ns"); ok && h.Count > 0 {
		v.RunMS = float64(h.Sum) / float64(h.Count) / 1e6
	}
	return v, nil
}

// foldMixedRepeats collapses per-repeat measurements of one variant into
// one record: foldLoad for the load stats, the server-side run shape as
// per-repeat means.
func foldMixedRepeats(runs []mixedVariant) mixedVariant {
	v := runs[0]
	v.loadStats = foldLoad(column(runs, func(r mixedVariant) loadStats { return r.loadStats }))
	v.RunsPerBatch = meanOf(runs, func(r mixedVariant) float64 { return r.RunsPerBatch })
	v.CohortsPerRun = meanOf(runs, func(r mixedVariant) float64 { return r.CohortsPerRun })
	v.RunMS = meanOf(runs, func(r mixedVariant) float64 { return r.RunMS })
	return v
}
