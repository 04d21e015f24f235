package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"flashmob"
)

// shardVariant is one measured topology under the identical mixed-cohort
// workload, aggregated over repeats.
type shardVariant struct {
	Name      string  `json:"name"`
	Transport string  `json:"transport"`
	Shards    int     `json:"shards"`
	Goodput   float64 `json:"goodput_walker_steps_per_sec"`
	Std       float64 `json:"goodput_std"`
	RunMS     float64 `json:"mean_run_ms"`
	Emigrants uint64  `json:"emigrants_per_run"`
	Frames    uint64  `json:"frames_per_run"`
	VsSingle  float64 `json:"goodput_vs_single"`
}

// shardReport is the schema of BENCH_shard.json.
type shardReport struct {
	Experiment  string         `json:"experiment"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Graph       string         `json:"graph"`
	Workers     int            `json:"workers"`
	MixWalkers  []uint64       `json:"mix_walkers"`
	MixSteps    []int          `json:"mix_steps"`
	WalkerSteps uint64         `json:"walker_steps_per_run"`
	Repeats     int            `json:"repeats"`
	PathsHash   uint64         `json:"paths_hash"`
	Note        string         `json:"note"`
	Variants    []shardVariant `json:"variants"`
}

// expShard sweeps the sharded topology — shard count for the in-process
// channel exchange, plus a two-shard TCP pair — against the single-engine
// baseline on one mixed-cohort workload. Every variant executes the
// bitwise-identical walk (the report carries one paths_hash all variants
// must reproduce), so the goodput column isolates pure topology overhead:
// superstep barriers, exchange staging, and (for TCP) framing and the
// loopback round trips. On a multi-core host with one engine per core the
// sweep shows sharding's scaling; on a single-core host every shard
// timeshares the same core, so vs_single below 1.0 is the honest price of
// the exchange machinery, not a regression — the note field records which
// reading applies.
func expShard(w io.Writer, cfg benchConfig) error {
	const graphName = "YT"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	opt := flashmob.Options{
		Algorithm: flashmob.DeepWalk(), Workers: cfg.Workers, Seed: cfg.Seed,
		RecordPaths: true,
	}
	sys, err := flashmob.New(g, opt)
	if err != nil {
		return err
	}
	defer sys.Close()

	steps := cfg.Steps
	if steps < 2 {
		steps = 2
	}
	cohorts := []flashmob.CohortSpec{
		{Algorithm: flashmob.DeepWalk(), Walkers: 4096, Steps: 2 * steps, Seed: 101},
		{Algorithm: flashmob.Node2Vec(0.5, 2), Walkers: 1024, Steps: steps, Seed: 102},
	}
	rep := shardReport{
		Experiment: "shard",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graph:      graphName,
		Workers:    cfg.Workers,
		Repeats:    cfg.Repeats,
	}
	for _, c := range cohorts {
		rep.MixWalkers = append(rep.MixWalkers, c.Walkers)
		rep.MixSteps = append(rep.MixSteps, c.Steps)
		rep.WalkerSteps += c.Walkers * uint64(c.Steps)
	}
	if rep.Repeats < 1 {
		rep.Repeats = 1
	}
	if rep.GOMAXPROCS == 1 {
		rep.Note = "single-core host: shards timeshare one core, so goodput_vs_single < 1 is the exchange overhead curve, not scaling"
	} else {
		rep.Note = "multi-core host: goodput_vs_single is the sharded scaling curve"
	}
	fmt.Fprintf(w, "|V|=%d |E|=%d, %v walkers x %v steps (%d walker-steps/run), x%d repeats\n%s\n\n",
		g.NumVertices(), g.NumEdges(), rep.MixWalkers, rep.MixSteps, rep.WalkerSteps, rep.Repeats, rep.Note)

	// run measures one executor closure: a warm-up run off the clock, then
	// the timed repeats, hashing every repeat's paths for the
	// identical-output check.
	run := func(exec func() (*flashmob.MixedResult, error)) (shardVariant, error) {
		var v shardVariant
		if _, err := exec(); err != nil {
			return v, err
		}
		goodputs := make([]float64, 0, rep.Repeats)
		var runMS float64
		for r := 0; r < rep.Repeats; r++ {
			t0 := time.Now()
			res, err := exec()
			dt := time.Since(t0)
			if err != nil {
				return v, err
			}
			h, err := hashPaths(res)
			if err != nil {
				return v, err
			}
			if rep.PathsHash == 0 {
				rep.PathsHash = h
			} else if h != rep.PathsHash {
				return v, fmt.Errorf("shard: paths diverged: hash %x, want %x", h, rep.PathsHash)
			}
			goodputs = append(goodputs, float64(rep.WalkerSteps)/dt.Seconds())
			runMS += float64(dt) / float64(time.Millisecond)
		}
		v.Goodput, v.Std = meanStd(goodputs)
		v.RunMS = runMS / float64(rep.Repeats)
		return v, nil
	}

	row(w, "variant", "transport", "shards", "goodput", "run-ms", "emigrants", "frames", "vs-single")
	emit := func(v shardVariant) {
		rep.Variants = append(rep.Variants, v)
		row(w, v.Name, v.Transport, big(uint64(v.Shards)), fmt.Sprintf("%.2fM", v.Goodput/1e6),
			f2(v.RunMS), big(v.Emigrants), big(v.Frames), fmt.Sprintf("%.2fx", v.VsSingle))
	}

	// Single-engine baseline: the same cohorts on the plain System.
	base, err := run(func() (*flashmob.MixedResult, error) { return sys.WalkMixed(cohorts) })
	if err != nil {
		return err
	}
	base.Name, base.Transport, base.Shards, base.VsSingle = "single", "none", 1, 1
	emit(base)

	// In-process sharded topologies: channel exchange at 1, 2, 4 shards.
	for _, shards := range []int{1, 2, 4} {
		ss, err := flashmob.NewSharded(sys, shards)
		if err != nil {
			return err
		}
		v, err := run(func() (*flashmob.MixedResult, error) {
			return ss.WalkMixed(context.Background(), cohorts)
		})
		if err != nil {
			return fmt.Errorf("chan-%d: %w", shards, err)
		}
		v.Name = fmt.Sprintf("chan-%d", shards)
		v.Transport, v.Shards = "chan", shards
		v.Emigrants, v.Frames = shardExchangeTotals(ss.MetricsReport(), rep.Repeats+1)
		v.VsSingle = v.Goodput / base.Goodput
		emit(v)
	}

	// Two-shard TCP pair over loopback: each worker is a full shard
	// engine (the fmserve -shard-worker process, hosted in-process here),
	// the coordinator places walkers and collects paths over the wire.
	v, err := runShardTCP(g, opt, sys, cohorts, rep.Repeats+1, run)
	if err != nil {
		return fmt.Errorf("tcp-2: %w", err)
	}
	v.VsSingle = v.Goodput / base.Goodput
	emit(v)

	return writeBenchJSON(w, "BENCH_shard.json", rep)
}

// runShardTCP hosts a two-worker loopback mesh for the TCP variant and
// tears it down (context cancel, both workers drained) before returning.
// runs is the mesh's total run count (warm-up included), the divisor that
// turns the exchange's cumulative counters into per-run figures.
func runShardTCP(g *flashmob.Graph, opt flashmob.Options, sys *flashmob.System,
	cohorts []flashmob.CohortSpec, runs int,
	run func(func() (*flashmob.MixedResult, error)) (shardVariant, error)) (shardVariant, error) {
	addrs := []string{"127.0.0.1:17861", "127.0.0.1:17862"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, len(addrs))
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = flashmob.ServeShardWorker(ctx, g, opt, i, addrs)
		}(i)
	}
	defer wg.Wait()
	defer cancel()
	for _, a := range addrs {
		for tries := 0; ; tries++ {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if tries > 200 {
				return shardVariant{}, fmt.Errorf("worker %s never came up: %w", a, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	ss, err := flashmob.NewShardedRemote(sys, addrs)
	if err != nil {
		return shardVariant{}, err
	}
	v, err := run(func() (*flashmob.MixedResult, error) {
		return ss.WalkMixed(context.Background(), cohorts)
	})
	if err != nil {
		return shardVariant{}, err
	}
	v.Name, v.Transport, v.Shards = "tcp-2", "tcp", 2
	v.Emigrants, v.Frames = shardExchangeTotals(ss.MetricsReport(), runs)
	return v, nil
}

// shardExchangeTotals sums the exchange's per-shard emigrant and frame
// vectors out of a topology metrics report and divides by the topology's
// run count (the counters accumulate across warm-up and repeats; every
// run moves the same walkers, so the division is exact).
func shardExchangeTotals(rep *flashmob.Report, runs int) (emigrants, frames uint64) {
	if runs < 1 {
		runs = 1
	}
	if v, ok := rep.Vector("shard_emigrants_total"); ok {
		emigrants = v.Total() / uint64(runs)
	}
	if v, ok := rep.Vector("shard_exchange_frames_total"); ok {
		frames = v.Total() / uint64(runs)
	}
	return emigrants, frames
}

// hashPaths folds every cohort's every trajectory into one FNV-1a word —
// the cheap bitwise-identity check each variant must reproduce.
func hashPaths(res *flashmob.MixedResult) (uint64, error) {
	h := fnv.New64a()
	var buf [4]byte
	for c := 0; c < res.NumCohorts(); c++ {
		paths, err := res.Paths(c)
		if err != nil {
			return 0, err
		}
		for _, p := range paths {
			for _, v := range p {
				buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64(), nil
}
