package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"flashmob"
	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/part"
	"flashmob/internal/profile"
)

// setupRepeats is how many times a plain run sets the system up; setup_s
// is their median. Traced runs set up once per phase.
const (
	bulkSetupRepeats  = 3
	serveSetupRepeats = 5
)

// layerSetup times the set-up stages flashmob.New runs internally, each
// through its own layer's public call — load, degree sort, MCKP plan,
// engine build with the plan supplied — and discards the result.
func layerSetup(path string, tr *tracer, m metrics) error {
	root := tr.newID()
	t0 := time.Now()
	g, err := flashmob.LoadFile(path, false)
	if err != nil {
		return err
	}
	t1 := time.Now()
	reorder := graph.SortByDegreeDesc(g)
	t2 := time.Now()
	model := profile.NewAnalyticalModel(mem.PaperGeometry())
	plan, err := part.PlanMCKP(reorder.Graph, part.Config{Walkers: uint64(reorder.Graph.NumVertices()), Model: model})
	if err != nil {
		return err
	}
	t3 := time.Now()
	eng, err := core.New(reorder.Graph, algo.DeepWalk(), core.Config{Plan: plan, Model: model, RecordHistory: true})
	if err != nil {
		return err
	}
	t4 := time.Now()
	eng.Close()
	tr.record(root, 0, "graph.load", t0, t1)
	tr.record(root, 0, "graph.sort", t1, t2)
	tr.record(root, 0, "part.plan", t2, t3)
	tr.record(root, 0, "core.build", t3, t4)
	tr.add(root, 0, 0, "bench.layer_setup", t0, time.Now())
	m.set("graph.load_s", t1.Sub(t0).Seconds(), "s")
	m.set("graph.sort_s", t2.Sub(t1).Seconds(), "s")
	m.set("part.plan_s", t3.Sub(t2).Seconds(), "s")
	m.set("core.build_s", t4.Sub(t3).Seconds(), "s")
	return nil
}

// bulkPhase is one measured stretch of bulk jobs on one build.
type bulkPhase struct {
	setupS      []float64
	latMS       []float64
	measured    time.Duration
	walkerSteps uint64
	attempted   int
	failed      int
	checkErr    error
	peakMB      float64
	timings     []flashmob.Timing
	reports     []*flashmob.Report
	plan        flashmob.PlanSummary
}

// sps is the phase's walker-steps per second of checked output.
func (p *bulkPhase) sps() float64 { return float64(p.walkerSteps) / p.measured.Seconds() }

// hopCheckEvery is the bulk hop-check sampling stride: job i checks the
// hops of every walker j with j%hopCheckEvery == i%hopCheckEvery. Every
// path's length and vertex range is checked in full; checking all
// 45 M hops of a job would take longer than the job itself.
const hopCheckEvery = 8

// runBulkPhase sets the system up `setups` times (keeping the last
// build), runs one untimed warm-up job, then times as many |V|-walker
// jobs as fit the run's seconds (at least two), each on a fresh session.
// The last timed job repeats the first job's seed and must reproduce its
// paths hash. After each job, outside its timed window, the paths are
// extracted and checked.
func runBulkPhase(cfg runConfig, ops []op, setups int, withMetrics bool, tr *tracer) (*bulkPhase, error) {
	ph := &bulkPhase{}
	gpath := cfg.w.graphPath(cfg.inputs)
	var (
		peak peakWindow
		g    *flashmob.Graph
		sys  *flashmob.System
		err  error
	)
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.Close()
			g, sys = nil, nil
		}
		t0 := time.Now()
		if g, err = flashmob.LoadFile(gpath, false); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if sys, err = flashmob.New(g, flashmob.Options{RecordPaths: true, Metrics: withMetrics}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		ph.setupS = append(ph.setupS, t2.Sub(t0).Seconds())
		tr.record(0, 0, "graph.load", t0, t1)
		tr.record(0, 0, "flashmob.new", t1, t2)
	}
	defer sys.Close()
	ph.plan = sys.Plan()
	chk, err := newChecker(g)
	if err != nil {
		return nil, err
	}

	job := func(o op) (*flashmob.Result, time.Time, time.Time, error) {
		t0 := time.Now()
		sess, err := sys.NewSession(nil)
		if err != nil {
			return nil, t0, t0, err
		}
		defer sess.Close()
		ts := time.Now()
		res, err := sess.WalkSeeded(*o.walk.Seed, 0, o.walk.Steps)
		return res, t0, ts, err
	}
	_, t0, _, err := job(ops[0])
	if err != nil {
		return nil, fmt.Errorf("warm-up walk: %w", err)
	}
	warm := time.Since(t0)
	n := max(2, int(math.Round(cfg.seconds.Seconds()/warm.Seconds())))
	n = min(n, len(ops)-1)
	// The peak covers the timed jobs: it starts from a collected heap, so
	// set-up and warm-up garbage the collector had not yet reclaimed does
	// not count, while everything the build keeps resident does.
	peak.reset()
	logf("bulk set-ups %.2f s, warm-up %.2fs, %d timed jobs", ph.setupS, warm.Seconds(), n)

	var firstHash uint64
	for i := 1; i <= n; i++ {
		o := ops[i]
		if i == n {
			o = ops[1]
		}
		jobID := tr.newID()
		res, t0, ts, err := job(o)
		t1 := time.Now()
		peak.read()
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.checkErr = fmt.Errorf("job %d: %w", i, err)
			continue
		}
		ph.measured += t1.Sub(t0)
		ph.latMS = append(ph.latMS, float64(t1.Sub(t0))/1e6)
		ph.timings = append(ph.timings, res.Timing())
		ph.reports = append(ph.reports, res.Report())
		tr.record(jobID, uint64(i), "core.session", t0, ts)
		tr.record(jobID, uint64(i), "core.walk", ts, t1)

		steps := res.TotalSteps()
		paths, err := res.Paths()
		t2 := time.Now()
		tr.record(jobID, uint64(i), "walk.paths", t1, t2)
		if err == nil && len(paths) != int(g.NumVertices()) {
			err = fmt.Errorf("%d paths for %d walkers", len(paths), g.NumVertices())
		}
		if err == nil {
			if bad, first := chk.paths(paths, o.walk.Steps, hopCheckEvery, i%hopCheckEvery); bad > 0 {
				err = fmt.Errorf("%d of %d paths invalid, first: %w", bad, len(paths), first)
			}
		}
		if h := pathsHash(paths); err == nil && i == 1 {
			firstHash = h
		} else if err == nil && i == n && h != firstHash {
			err = fmt.Errorf("seed %d did not reproduce its paths", *o.walk.Seed)
		}
		t3 := time.Now()
		logf("bulk job %d: walk %.2fs, paths %.2fs, check %.2fs", i, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds())
		tr.record(jobID, uint64(i), "bench.check", t2, t3)
		tr.add(jobID, 0, uint64(i), "bench.job", t0, t3)
		if err != nil {
			ph.failed++
			ph.checkErr = fmt.Errorf("job %d: %w", i, err)
		} else {
			ph.walkerSteps += steps
		}
		peak.reset()
	}
	ph.peakMB = peak.mb()
	return ph, nil
}

// runBulk is the bulk-deepwalk workload. The plain run reports the
// end-to-end metrics; the traced run times the set-up layers, repeats the
// plain measurement, then measures again on a build with engine metrics
// on and spans recorded, and reports per-layer figures plus the tracing
// overhead between the two.
func runBulk(cfg runConfig, ops []op, tr *tracer) (result, error) {
	m := metrics{}
	if tr == nil {
		ph, err := runBulkPhase(cfg, ops, bulkSetupRepeats, false, nil)
		if err != nil {
			return result{}, err
		}
		endToEnd(m, median(ph.setupS), ph.sps(), ph.peakMB, ph.latMS)
		return bulkResult(m, ph), nil
	}
	ticks := readCPUTicks()
	if err := layerSetup(cfg.w.graphPath(cfg.inputs), tr, m); err != nil {
		return result{}, err
	}
	plain, err := runBulkPhase(cfg, ops, 1, false, nil)
	if err != nil {
		return result{}, err
	}
	ph, err := runBulkPhase(cfg, ops, 1, true, tr)
	if err != nil {
		return result{}, err
	}
	m.set("host.steal_share", stealShare(ticks, readCPUTicks()), "share")
	overhead(m, plain.sps(), ph.sps(), plain.latMS, ph.latMS)
	m.set("part.vps", float64(ph.plan.NumVPs), "count")
	m.set("part.ps_vertex_share", float64(ph.plan.PSVertices)/float64(ph.plan.PSVertices+ph.plan.DSVertices), "share")
	var sample, other time.Duration
	var runMS []float64
	for _, t := range ph.timings {
		sample += t.Sample
		other += t.Other
		runMS = append(runMS, float64(t.Total)/1e6)
	}
	engineLayers(m, ph.reports, ph.measured)
	steps := float64(ph.walkerSteps)
	m.set("core.sample_ns_per_step", float64(sample)/steps, "ns")
	m.set("core.other_ns_per_step", float64(other)/steps, "ns")
	p50, _ := percentile(runMS, 50)
	m.set("core.run_ms_p50", p50, "ms")
	serveLayersAbsent(m)
	dynLayersAbsent(m)
	tr.selfShares(m)
	res := bulkResult(m, ph)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.checkErr == nil
	return res, nil
}

// bulkResult wraps a phase's counts and metrics into the output line.
func bulkResult(m metrics, ph *bulkPhase) result {
	if ph.checkErr != nil {
		logf("bulk: %v", ph.checkErr)
	}
	return result{Correct: ph.checkErr == nil, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
}

// endToEnd sets the five end-to-end metrics every workload reports.
func endToEnd(m metrics, setupS, sps, peakMB float64, latMS []float64) {
	m.set("setup_s", setupS, "s")
	m.set("walker_steps_per_s", sps, "1/s")
	m.set("peak_rss_mb", peakMB, "MiB")
	p50, _ := percentile(latMS, 50)
	p90, beyond := percentile(latMS, 90)
	m.set("lat_p50_ms", p50, "ms")
	m.set("lat_p90_ms", p90, "ms")
	logf("latency: %d samples, %d beyond p90", len(latMS), beyond)
}

// overhead reports how much the traced phase lost against the plain one:
// the throughput drop and the p50 latency rise, each as a share of the
// plain figure (negative values are run-to-run noise).
func overhead(m metrics, plainSPS, tracedSPS float64, plainLat, tracedLat []float64) {
	m.set("trace.overhead_steps_share", 1-tracedSPS/plainSPS, "share")
	a, _ := percentile(plainLat, 50)
	b, _ := percentile(tracedLat, 50)
	m.set("trace.overhead_lat_p50_share", b/a-1, "share")
}

// engineLayers derives the per-walker-step engine figures from obs
// reports: sample time and shuffle time per direction, walker-steps per
// sample kernel, and the pool's busy and barrier-wait shares of workers ×
// wall time.
func engineLayers(m metrics, reps []*flashmob.Report, wall time.Duration) {
	var sample, fwd, rev, busy, barrier, steps float64
	workers := 0
	kernels := map[string]float64{}
	for _, r := range reps {
		if r == nil {
			continue
		}
		for _, h := range r.Histograms {
			switch h.Name {
			case "core_sample_step_ns":
				sample += float64(h.Sum)
			case "core_shuffle_fwd_step_ns":
				fwd += float64(h.Sum)
			case "core_shuffle_rev_step_ns":
				rev += float64(h.Sum)
			}
		}
		for _, c := range r.Counters {
			if c.Name == "pool_barrier_wait_ns" {
				barrier += float64(c.Value)
			}
		}
		for _, v := range r.Vectors {
			switch v.Name {
			case "pool_worker_busy_ns":
				workers = len(v.Values)
				busy += float64(v.Total())
			case "core_sample_kernel_walker_steps":
				for i, l := range v.Labels {
					kernels[l] += float64(v.Values[i])
					steps += float64(v.Values[i])
				}
			}
		}
	}
	m.set("core.sample_ns_per_step", sample/steps, "ns")
	m.set("walk.shuffle_fwd_ns_per_step", fwd/steps, "ns")
	m.set("walk.shuffle_rev_ns_per_step", rev/steps, "ns")
	for _, k := range kernelNames {
		m.set("core.kernel_walker_steps."+k, kernels[k], "count")
	}
	capacity := float64(workers) * float64(wall)
	m.set("pool.busy_share", busy/capacity, "share")
	m.set("pool.barrier_wait_share", barrier/capacity, "share")
}

// kernelNames are the sample-kernel labels of
// core_sample_kernel_walker_steps, each reported as its own metric.
var kernelNames = []string{"empty", "ps", "ps-weighted", "ds-regular", "ds-csr", "ds-weighted"}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
