package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"flashmob"
	"flashmob/internal/rng"
	"flashmob/internal/serve"
)

// dynamicVariant is one measured churn profile: the same open-loop walk
// load against a dynamic server while a configured edge stream lands
// (or doesn't) through POST /v1/ingest.
type dynamicVariant struct {
	Name         string `json:"name"`
	FreezePerBat bool   `json:"freeze_per_batch"`
	CompactEvery int    `json:"compact_every"`
	Offered      int    `json:"offered_requests"`
	loadStats
	IngestedEdges float64 `json:"accepted_edges_mean"`
	FinalEpoch    float64 `json:"final_epoch_mean"`
	Compactions   float64 `json:"compactions_mean"`
	GoodputShare  float64 `json:"goodput_vs_quiescent"`
}

// dynamicReport is the schema of BENCH_dynamic.json.
type dynamicReport struct {
	Experiment    string           `json:"experiment"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	Graph         string           `json:"graph"`
	Workers       int              `json:"workers"`
	Steps         int              `json:"steps"`
	MixWalkers    []int            `json:"mix_walkers"`
	OfferedQPS    float64          `json:"offered_qps"`
	EdgesPerBatch int              `json:"edges_per_batch"`
	IngestIntvMS  float64          `json:"ingest_interval_ms"`
	Repeats       int              `json:"repeats"`
	Variants      []dynamicVariant `json:"variants"`
}

// foldDynamicRepeats collapses per-repeat measurements of one churn
// profile: foldLoad for the load stats, plus the dynamic-side
// observations (epochs, compactions, accepted edges) as per-repeat
// means.
func foldDynamicRepeats(runs []dynamicVariant) dynamicVariant {
	v := runs[0]
	v.loadStats = foldLoad(column(runs, func(r dynamicVariant) loadStats { return r.loadStats }))
	v.IngestedEdges = meanOf(runs, func(r dynamicVariant) float64 { return r.IngestedEdges })
	v.FinalEpoch = meanOf(runs, func(r dynamicVariant) float64 { return r.FinalEpoch })
	v.Compactions = meanOf(runs, func(r dynamicVariant) float64 { return r.Compactions })
	return v
}

// expDynamic measures what graph churn costs a serving walk workload:
// the same open-loop walk mix is offered to a dynamic server while an
// edge stream lands through /v1/ingest. Three churn profiles bracket
// the cost — quiescent (no ingest: the walk-on-snapshot tax alone),
// ingest (every batch freezes a new overlay epoch, never compacted),
// and ingest+compact (compactions rebuild and swap the engine under
// load). Zero failed requests is part of the contract: epochs swap,
// walks never break.
func expDynamic(w io.Writer, cfg benchConfig) error {
	const graphName = "YT"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	mix := []int{8, 32, 128}

	// Calibrate like the serve experiment — median solo latency on a
	// batch-size-1 server bounds capacity — but offer *below* it: the
	// question here is what churn does to a healthy server (latency
	// inflation, lost goodput, failures), not how overload sheds, so the
	// load must leave the CPU slack for freezes and compactions to
	// actually land.
	const executors = 2
	solo, err := soloLatency(func() (*loadServer, error) {
		ls, _, err := newDynServeServer(g, cfg, time.Millisecond, 1, executors, 0)
		return ls, err
	}, mix, cfg.Steps)
	if err != nil {
		return err
	}
	capacity := float64(executors) / solo.Seconds()
	qps := 0.35 * capacity
	offered := int(qps * 1.5)
	if offered < 100 {
		offered = 100
	}
	if offered > 1500 {
		offered = 1500
	}
	const (
		edgesPerBatch = 256
		ingestIntv    = 15 * time.Millisecond
	)
	fmt.Fprintf(w, "calibration: solo run %.2fms -> capacity ~%.0f req/s; offering %.0f req/s (%d requests), ingesting %d edges / %s\n\n",
		float64(solo)/float64(time.Millisecond), capacity, qps, offered, edgesPerBatch, ingestIntv)

	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	rep := dynamicReport{
		Experiment:    "dynamic",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Graph:         graphName,
		Workers:       cfg.Workers,
		Steps:         cfg.Steps,
		MixWalkers:    mix,
		OfferedQPS:    qps,
		EdgesPerBatch: edgesPerBatch,
		IngestIntvMS:  float64(ingestIntv) / float64(time.Millisecond),
		Repeats:       reps,
	}

	type variantCfg struct {
		name         string
		stream       bool
		compactEvery int
	}
	variants := []variantCfg{
		{"quiescent", false, 0},
		{"ingest", true, 0},
		{"ingest-compact", true, 2},
	}

	// Burn-in: the process's first heavy run pays one-time costs the
	// later ones don't (heap growth, GC pacing, page faults), which
	// otherwise land entirely on whichever variant happens to run first.
	// One unrecorded load levels the field.
	if _, err := runDynamicVariant(g, cfg, "burn-in", false, 0, executors, mix, qps, offered/3+1, edgesPerBatch, ingestIntv, 0); err != nil {
		return err
	}

	row(w, "variant", "served", "shed", "fail", "goodput", "p50-ms", "p99-ms", "epoch", "compact", "vs-quiet")
	var base float64
	for _, vc := range variants {
		runs := make([]dynamicVariant, 0, reps)
		for r := 0; r < reps; r++ {
			one, err := runDynamicVariant(g, cfg, vc.name, vc.stream, vc.compactEvery,
				executors, mix, qps, offered, edgesPerBatch, ingestIntv, uint64(r))
			if err != nil {
				return err
			}
			runs = append(runs, one)
		}
		v := foldDynamicRepeats(runs)
		if base == 0 {
			base = v.Goodput
		}
		v.GoodputShare = v.Goodput / base
		rep.Variants = append(rep.Variants, v)
		row(w, v.Name, big(uint64(v.Served)), big(uint64(v.Shed)), big(uint64(v.Failed)),
			fmt.Sprintf("%.2fM", v.Goodput/1e6), f2(v.P50MS), f2(v.P99MS),
			f2(v.FinalEpoch), f2(v.Compactions), fmt.Sprintf("%.2fx", v.GoodputShare))
	}

	return writeBenchJSON(w, "BENCH_dynamic.json", rep)
}

// newDynServeServer builds a fresh dynamic system behind a serve.Server
// (which owns and closes it) on an ephemeral port. The returned
// DynamicSystem handle is for reading Stats; it stays valid until the
// server is closed.
func newDynServeServer(g *flashmob.Graph, cfg benchConfig, window time.Duration, maxReq, executors, compactEvery int) (*loadServer, *flashmob.DynamicSystem, error) {
	spec := flashmob.DeepWalk()
	d, err := flashmob.NewDynamic(g, flashmob.DynamicOptions{
		Algorithm: spec, Workers: cfg.Workers, Seed: cfg.Seed,
		Undirected: true, RecordPaths: true, CompactEvery: compactEvery,
	})
	if err != nil {
		return nil, nil, err
	}
	ls, err := startServer([]serve.Backend{{Name: "deepwalk", Dyn: d, Spec: spec}}, serve.Config{
		MaxWait:          window,
		MaxBatchRequests: maxReq,
		Executors:        executors,
		Seed:             cfg.Seed,
	}, d.Close)
	return ls, d, err
}

// postIngestBatch posts one /v1/ingest body and returns the accepted
// edge count.
func postIngestBatch(ls *loadServer, edges [][2]flashmob.VID, freeze bool) (int, error) {
	resp, err := ls.postJSON("/v1/ingest", serve.IngestRequest{Edges: edges, Freeze: freeze})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("ingest got status %d", resp.StatusCode)
	}
	var ir serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return 0, err
	}
	return ir.Accepted, nil
}

// runDynamicVariant offers the open-loop walk load to one fresh dynamic
// server while (optionally) streaming edge batches at it, and folds the
// client-side observations plus the system's final Stats into a
// dynamicVariant.
func runDynamicVariant(g *flashmob.Graph, cfg benchConfig, name string, stream bool, compactEvery, executors int, mix []int, qps float64, offered, edgesPerBatch int, ingestIntv time.Duration, repeat uint64) (dynamicVariant, error) {
	ls, d, err := newDynServeServer(g, cfg, 4*time.Millisecond, 0, executors, compactEvery)
	if err != nil {
		return dynamicVariant{}, err
	}
	defer ls.Close()
	// Warm the engine (first-touch faults, snapshot path) off the clock.
	if _, err := ls.post(serve.WalkRequest{Walkers: 64, Steps: cfg.Steps}); err != nil {
		return dynamicVariant{}, err
	}

	// The ingest stream: deterministic per (seed, repeat), batches drawn
	// over the base vertex space plus 5% growth so compactions have new
	// vertices to absorb (like fmgen -stream). Every batch freezes, so
	// each one publishes an epoch.
	stop := make(chan struct{})
	var streamWG sync.WaitGroup
	var accepted int
	var streamErr error
	if stream {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			src := rng.NewXorShift1024Star(rng.Mix64(cfg.Seed ^ 0xd1_4a3c ^ repeat))
			maxV := g.NumVertices() + g.NumVertices()/20
			tick := time.NewTicker(ingestIntv)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				edges := make([][2]flashmob.VID, edgesPerBatch)
				for i := range edges {
					u := rng.Uint32n(src, maxV)
					v := rng.Uint32n(src, maxV)
					for v == u {
						v = rng.Uint32n(src, maxV)
					}
					edges[i] = [2]flashmob.VID{flashmob.VID(u), flashmob.VID(v)}
				}
				n, err := postIngestBatch(ls, edges, true)
				if err != nil {
					streamErr = err
					return
				}
				accepted += n
			}
		}()
	}

	results, wall := ls.openLoop(offered, qps, mix, cfg.Steps)
	close(stop)
	streamWG.Wait()
	if streamErr != nil {
		return dynamicVariant{}, streamErr
	}

	st := d.Stats()
	return dynamicVariant{
		Name:          name,
		FreezePerBat:  stream,
		CompactEvery:  compactEvery,
		Offered:       offered,
		loadStats:     tallyLoad(results, wall),
		IngestedEdges: float64(accepted),
		FinalEpoch:    float64(st.Epoch),
		Compactions:   float64(st.Compactions),
	}, nil
}
