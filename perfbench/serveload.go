package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

// runServe is the serve-mixed and serve-churn workload: set the server up
// (several times in a plain run, setup_s being the median), warm up, run
// the closed loop for the run's seconds, and only then replay seeded
// requests (serve-mixed), shut down and check every answer. The traced
// run also times the set-up layers and follows the plain phase with a
// traced phase of the same length on the same server.
func runServe(cfg runConfig, ops []op, tr *tracer) (result, error) {
	gpath := cfg.w.graphPath(cfg.inputs)
	m := metrics{}
	if tr != nil {
		if err := layerSetup(gpath, tr, m); err != nil {
			return result{}, err
		}
	}
	setups := serveSetupRepeats
	if tr != nil {
		setups = 1
	}
	var (
		peak   peakWindow
		s      *server
		g      *flashmob.Graph
		setupS []float64
		err    error
	)
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, err
			}
			s, g = nil, nil
		}
		t0 := time.Now()
		if s, g, err = startServer(gpath, cfg.w.churn); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	serving := true
	defer func() {
		if serving { // an error path left the server up
			s.close()
		}
	}()
	lg, err := newLoadgen(s.url, ops)
	if err != nil {
		return result{}, err
	}
	defer lg.close()

	warm := lg.warmPairs(len(mixWalkers) * len(mixSteps) * len(mixAlgos))
	rest, _ := lg.closedLoop(warmup)
	warm = append(warm, rest...)
	peak.reset()
	ticks := readCPUTicks()
	cpu0 := cpuTime()
	phase, wall := lg.closedLoop(cfg.seconds)
	cpuUsed := cpuTime() - cpu0
	peak.read()
	var traced []opResult
	var tracedWall time.Duration
	if tr != nil {
		traced, tracedWall = lg.closedLoop(cfg.seconds)
	}
	steal := stealShare(ticks, readCPUTicks())
	srvMetrics, err := fetchMetrics(lg)
	if err != nil {
		return result{}, err
	}
	var dynStats flashmob.DynamicStats
	if s.dyn != nil {
		dynStats = s.dyn.Stats()
	}
	var replayed []opResult
	if !cfg.w.churn {
		replayed = replay(lg, phase)
	}
	serving = false
	if err := s.close(); err != nil {
		return result{}, err
	}
	lifetime := time.Since(s.ready)

	// Checks, all after the timed phases. The edge set is the base graph
	// plus every ingest the server acknowledged.
	chk, err := newChecker(g)
	if err != nil {
		return result{}, err
	}
	for _, rs := range [][]opResult{warm, phase, traced} {
		for _, r := range rs {
			if o := &ops[r.k%len(ops)]; o.path == "/v1/ingest" && r.status == http.StatusOK {
				chk.addEdges(o.ingest.Edges, true)
			}
		}
	}
	warmCheck := checkResults(chk, lg, warm, nil)
	c := checkResults(chk, lg, phase, nil)
	for i := range replayed {
		orig, r := &phase[i*replayStride(len(phase))], &replayed[i]
		a, err1 := lg.body(orig)
		b, err2 := lg.body(r)
		pa := pathsBytes(a)
		if r.status != http.StatusOK || err1 != nil || err2 != nil || len(pa) == 0 || !bytes.Equal(pa, pathsBytes(b)) {
			c.wrongOutput(fmt.Errorf("op %d: seeded replay returned different paths (status %d)", orig.k, r.status))
		}
	}
	res := result{
		Correct:   warmCheck.wrong == 0 && c.wrong == 0,
		Attempted: c.attempted,
		Failed:    c.failed + warmCheck.failed,
		Metrics:   m,
	}
	for _, e := range []error{warmCheck.err, c.err} {
		if e != nil {
			logf("%s: %v", cfg.w.name, e)
		}
	}
	sps := float64(c.walkerSteps) / wall.Seconds()
	ing, _ := percentile(c.ingestMS, 50)
	logf("%s: %d ops in %.2fs using %.2f CPU-s, %d replays, ingest p50 %.2fms, steal %.3f",
		cfg.w.name, len(phase), wall.Seconds(), cpuUsed.Seconds(), len(replayed), ing, steal)
	if tr == nil {
		endToEnd(m, median(setupS), sps, peak.mb(), c.latMS)
		return res, nil
	}

	tc := checkResults(chk, lg, traced, tr)
	res.Attempted += tc.attempted
	res.Failed += tc.failed
	res.Correct = res.Correct && tc.wrong == 0
	if tc.err != nil {
		logf("%s traced: %v", cfg.w.name, tc.err)
	}
	m.set("host.steal_share", steal, "share")
	overhead(m, sps, float64(tc.walkerSteps)/tracedWall.Seconds(), c.latMS, tc.latMS)
	var reps []*flashmob.Report
	if s.sys != nil {
		reps = append(reps, s.sys.MetricsReport())
		p := s.sys.Plan()
		m.set("part.vps", float64(p.NumVPs), "count")
		m.set("part.ps_vertex_share", float64(p.PSVertices)/float64(p.PSVertices+p.DSVertices), "share")
	} else {
		m.set("part.vps", 0, "count")
		m.set("part.ps_vertex_share", 0, "share")
	}
	engineLayers(m, reps, lifetime)
	m.set("core.other_ns_per_step", 0, "ns")
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 50); return v }
	m.set("core.run_ms_p50", p50(tc.runMS), "ms")
	m.set("serve.queue_ms_p50", p50(tc.queueMS), "ms")
	m.set("serve.overhead_ms_p50", p50(tc.overheadMS), "ms")
	m.set("serve.batch_requests_mean", mean(tc.batchRequests), "count")
	m.set("serve.run_cohorts_mean", mean(tc.runCohorts), "count")
	m.set("serve.response_bytes_mean", mean(tc.responseBytes), "B")
	var shed, failed float64
	for _, ctr := range srvMetrics.Server.Counters {
		switch {
		case strings.HasPrefix(ctr.Name, "serve_shed_"):
			shed += float64(ctr.Value)
		case ctr.Name == "serve_failed_total":
			failed += float64(ctr.Value)
		}
	}
	m.set("serve.shed", shed, "count")
	m.set("serve.failed", failed, "count")
	if s.dyn == nil {
		dynLayersAbsent(m)
	} else {
		var swaps, compactMS float64
		if d := srvMetrics.Dyn; d != nil {
			for _, ctr := range d.Counters {
				if ctr.Name == "dyn_epoch_swaps_total" {
					swaps = float64(ctr.Value)
				}
			}
			for _, h := range d.Histograms {
				if h.Name == "dyn_compaction_ns" {
					compactMS = h.Mean() / 1e6
				}
			}
		}
		m.set("dyn.freezes", float64(dynStats.Freezes), "count")
		m.set("dyn.compactions", float64(dynStats.Compactions), "count")
		m.set("dyn.epoch_swaps", swaps, "count")
		m.set("dyn.compaction_ms_mean", compactMS, "ms")
		var ingestS float64
		for _, x := range tc.ingestMS {
			ingestS += x / 1e3
		}
		m.set("dyn.ingest_edges_per_s", float64(tc.ingestedEdges)/ingestS, "1/s")
		m.set("dyn.ingest_p50_ms", p50(tc.ingestMS), "ms")
	}
	tr.selfShares(m)
	return res, nil
}

// replayStride spaces the replayed ops evenly over a phase's results.
func replayStride(n int) int { return max(1, n/replays) }

// replay re-sends an evenly spaced sample of a phase's ops, one at a
// time; replayed[i] answers phase[i*replayStride(len(phase))]. Every
// serve-mixed op is seeded, so each answer must repeat its paths.
func replay(lg *loadgen, phase []opResult) []opResult {
	var (
		out []opResult
		buf bytes.Buffer
	)
	for i := 0; i*replayStride(len(phase)) < len(phase) && len(out) < replays; i++ {
		out = append(out, lg.do(phase[i*replayStride(len(phase))].k, &buf))
	}
	return out
}

// fetchMetrics reads GET /metrics.
func fetchMetrics(lg *loadgen) (*serve.MetricsResponse, error) {
	resp, err := lg.client.Get(lg.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var mr serve.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	if mr.Server == nil {
		return nil, fmt.Errorf("/metrics has no server report")
	}
	return &mr, nil
}

// serveLayersAbsent reports the serving-layer metrics as 0 on the bulk
// workload, which has no server.
func serveLayersAbsent(m metrics) {
	for _, n := range []string{"serve.queue_ms_p50", "serve.overhead_ms_p50"} {
		m.set(n, 0, "ms")
	}
	for _, n := range []string{"serve.batch_requests_mean", "serve.run_cohorts_mean", "serve.shed", "serve.failed"} {
		m.set(n, 0, "count")
	}
	m.set("serve.response_bytes_mean", 0, "B")
}

// dynLayersAbsent reports the dynamic-graph metrics as 0 on workloads
// without a dynamic backend.
func dynLayersAbsent(m metrics) {
	for _, n := range []string{"dyn.freezes", "dyn.compactions", "dyn.epoch_swaps"} {
		m.set(n, 0, "count")
	}
	m.set("dyn.compaction_ms_mean", 0, "ms")
	m.set("dyn.ingest_edges_per_s", 0, "1/s")
	m.set("dyn.ingest_p50_ms", 0, "ms")
}
