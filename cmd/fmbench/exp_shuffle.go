package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/pool"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// shuffleWalkers sizes the component measurement so the walker arrays
// (3 × 4 B × walkers ≈ 800 MB) overflow any L3 on the market: the §4.3
// shuffle is only interesting in the paper's regime, where walker state
// streams through DRAM. Cache-resident toys make the staged gather look
// like pure overhead.
const shuffleWalkers = 1 << 26

// shufflePass is the engine's shuffle timed at one worker count.
type shufflePass struct {
	Workers     int     `json:"workers"`
	FwdNSWalker float64 `json:"fwd_ns_per_walker"`
	RevNSWalker float64 `json:"rev_ns_per_walker"`
	NSPerWalker float64 `json:"ns_per_walker"` // fwd+rev, the per-step shuffle cost
}

// shuffleEndToEnd is one full-engine run with the stage split.
type shuffleEndToEnd struct {
	Graph       string  `json:"graph"`
	NSPerStep   float64 `json:"ns_per_step"`
	SampleShare float64 `json:"sample_share"`
	FwdShare    float64 `json:"shuffle_fwd_share"`
	RevShare    float64 `json:"shuffle_rev_share"`
}

// shuffleReport is the schema of BENCH_shuffle.json.
type shuffleReport struct {
	Experiment string            `json:"experiment"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Walkers    int               `json:"walkers"`
	Bins       int               `json:"bins"`
	Shuffle    []shufflePass     `json:"shuffle"`
	EndToEnd   []shuffleEndToEnd `json:"end_to_end"`
}

// expShuffle measures the §4.3 shuffle stage in isolation at DRAM scale —
// the engine's direct scatter and staged gather on its worker pool,
// across worker counts — then records the end-to-end per-step stage
// split on the preset graphs. Results land in BENCH_shuffle.json next to
// the table.
func expShuffle(w io.Writer, cfg benchConfig) error {
	// A 2-regular graph keeps CSR construction cheap; shuffle cost
	// depends on the walker count and bin count, not on edges.
	g, err := gen.UniformDegree(1<<20, 2, cfg.Seed)
	if err != nil {
		return err
	}
	plan, err := part.PlanUniform(g, part.Config{MaxBins: 2048}, profile.DS)
	if err != nil {
		return err
	}

	walkers := shuffleWalkers
	src := rng.NewXorShift1024Star(cfg.Seed + 9)
	wArr := make([]graph.VID, walkers)
	sw := make([]graph.VID, walkers)
	next := make([]graph.VID, walkers)
	for i := range wArr {
		wArr[i] = graph.VID(rng.Uint32n(src, g.NumVertices()))
	}

	rep := shuffleReport{
		Experiment: "shuffle",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Walkers:    walkers,
		Bins:       plan.Weight(),
	}

	workerCounts := []int{1, 4}
	if n := cfg.Workers; n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	row(w, "workers", "fwd-ns/walker", "rev-ns/walker", "total-ns/walker")
	for _, workers := range workerCounts {
		p := pool.New(workers)
		sh, err := walk.NewShuffler(plan, walkers, p)
		if err != nil {
			p.Close()
			return err
		}
		fwd, rev, err := timeShufflePass(sh, wArr, sw, next)
		p.Close()
		if err != nil {
			return err
		}
		r := shufflePass{
			Workers:     workers,
			FwdNSWalker: float64(fwd.Nanoseconds()) / float64(walkers),
			RevNSWalker: float64(rev.Nanoseconds()) / float64(walkers),
		}
		r.NSPerWalker = r.FwdNSWalker + r.RevNSWalker
		rep.Shuffle = append(rep.Shuffle, r)
		row(w, fmt.Sprintf("%d", workers), ns(r.FwdNSWalker), ns(r.RevNSWalker), ns(r.NSPerWalker))
	}
	// Free the component arrays before the end-to-end engines run.
	wArr, sw, next = nil, nil, nil
	runtime.GC()

	fmt.Fprintln(w)
	row(w, "graph", "ns/step", "sample", "shuffle-fwd", "shuffle-rev")
	for _, name := range []string{"YT", "FS"} {
		gg, err := presetGraphSized(name, cfg, cfg.MinCSR)
		if err != nil {
			return err
		}
		e, err := flashMobEngine(gg, algo.DeepWalk(), cfg, nil)
		if err != nil {
			return err
		}
		res, err := e.Run(0, cfg.Steps)
		e.Close()
		if err != nil {
			return err
		}
		tot := float64(res.Duration)
		ee := shuffleEndToEnd{
			Graph:       name,
			NSPerStep:   res.PerStepNS(),
			SampleShare: float64(res.SampleTime) / tot,
			FwdShare:    float64(res.ShuffleFwdTime) / tot,
			RevShare:    float64(res.ShuffleRevTime) / tot,
		}
		rep.EndToEnd = append(rep.EndToEnd, ee)
		row(w, name, ns(ee.NSPerStep), pct(ee.SampleShare), pct(ee.FwdShare), pct(ee.RevShare))
	}

	return writeBenchJSON(w, "BENCH_shuffle.json", rep)
}

// timeShufflePass times Forward and Reverse separately: one warm-up
// round, then the best of three measured rounds of each direction.
func timeShufflePass(sh *walk.Shuffler, w, sw, next []graph.VID) (fwd, rev time.Duration, err error) {
	const rounds = 3
	if err = sh.Forward(w, sw, nil, nil); err != nil {
		return
	}
	if err = sh.Reverse(w, sw, next, nil, nil); err != nil {
		return
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err = sh.Forward(w, sw, nil, nil); err != nil {
			return
		}
		dF := time.Since(t0)
		t0 = time.Now()
		if err = sh.Reverse(w, sw, next, nil, nil); err != nil {
			return
		}
		dR := time.Since(t0)
		if i == 0 || dF < fwd {
			fwd = dF
		}
		if i == 0 || dR < rev {
			rev = dR
		}
	}
	return
}
