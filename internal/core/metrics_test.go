package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// metricsConfig is the shared engine config of the metrics tests.
func metricsConfig(workers int) Config {
	return Config{
		Workers: workers,
		Seed:    7,
		Metrics: true,
		Part:    part.Config{TargetGroups: 16},
	}
}

// TestMetricsReportAttached verifies the on/off contract: with
// Config.Metrics the Result carries a Report whose run-shape counters
// match the run; without it the Report is nil and no metrics state exists.
func TestMetricsReportAttached(t *testing.T) {
	g := undirectedTestGraph(t, 300, 31)

	off := newEngine(t, g, algo.DeepWalk(), Config{Workers: 2, Seed: 7})
	defer off.Close()
	res, err := off.Run(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatalf("metrics off: Result.Report = %v, want nil", res.Report)
	}
	if off.MetricsReport() != nil {
		t.Fatal("metrics off: MetricsReport() non-nil")
	}

	on := newEngine(t, g, algo.DeepWalk(), metricsConfig(2))
	defer on.Close()
	res, err = on.Run(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("metrics on: Result.Report is nil")
	}
	if rep.SchemaVersion != obs.ReportSchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, obs.ReportSchemaVersion)
	}
	want := map[string]uint64{
		"core_runs_total":     1,
		"core_episodes_total": 1,
		"core_steps_total":    4,
		"core_walkers_total":  1000,
		"pool_runs_total":     4 * 4, // sample + count + scatter + gather per step
	}
	for name, v := range want {
		c, ok := rep.Counter(name)
		if !ok {
			t.Fatalf("counter %q missing from report", name)
		}
		if c.Value != v {
			t.Errorf("%s = %d, want %d", name, c.Value, v)
		}
	}
	kern, ok := rep.Vector("core_sample_kernel_walker_steps")
	if !ok {
		t.Fatal("kernel vector missing")
	}
	vp, ok := rep.Vector("core_vp_walker_steps")
	if !ok {
		t.Fatal("vp vector missing")
	}
	// Every sampled walker-step is attributed exactly once in both the
	// kernel view and the partition view.
	if kern.Total() != 4*1000 || vp.Total() != 4*1000 {
		t.Errorf("walker-step attribution: kernel %d, vp %d, want %d", kern.Total(), vp.Total(), 4*1000)
	}
}

// TestMetricsSnapshotDeterminism locks the deterministic subset of the
// report: trajectories are worker-count-independent (seeds derive from
// (episode, step, vp)), so the structural counters and walker-step vectors
// of two same-seed runs must match exactly — even across different worker
// counts. Time-valued metrics are excluded by construction (the unit
// filter keeps everything except "ns").
func TestMetricsSnapshotDeterminism(t *testing.T) {
	g := undirectedTestGraph(t, 400, 32)

	snap := func(workers int) *obs.Report {
		e := newEngine(t, g, algo.DeepWalk(), metricsConfig(workers))
		defer e.Close()
		if _, err := e.Run(2000, 6); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(2000, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}

	a, b := snap(1), snap(4)
	for _, c := range a.Counters {
		if c.Unit == "ns" {
			continue
		}
		// pool_runs_total counts phase barriers, identical across worker
		// counts; all core_* count/walkers counters are structural.
		bc, ok := b.Counter(c.Name)
		if !ok {
			t.Fatalf("counter %q missing from second run", c.Name)
		}
		if bc.Value != c.Value {
			t.Errorf("%s: %d (1 worker) vs %d (4 workers)", c.Name, c.Value, bc.Value)
		}
	}
	for _, v := range a.Vectors {
		if v.Unit == "ns" {
			continue
		}
		bv, ok := b.Vector(v.Name)
		if !ok {
			t.Fatalf("vector %q missing from second run", v.Name)
		}
		for i := range v.Values {
			if v.Values[i] != bv.Values[i] {
				t.Errorf("%s[%d]: %d vs %d", v.Name, i, v.Values[i], bv.Values[i])
			}
		}
	}
	for _, h := range a.Histograms {
		if h.Unit == "ns" {
			continue
		}
		bh, ok := b.Histogram(h.Name)
		if !ok || bh.Count != h.Count || bh.Sum != h.Sum {
			t.Errorf("%s: count/sum %d/%d vs %d/%d", h.Name, h.Count, h.Sum, bh.Count, bh.Sum)
		}
	}
}

// TestSampleMetricsInlineMatchPooled holds the sample stage's counts
// to the path that ran it: the same mixed run, with walk.InlineCutoff
// moved above its walker count (every phase inline) and below it (every
// phase pooled), must report identical counters, vectors and histograms
// outside the time-valued ones, and core_vp_walker_steps must sum to
// the run's walker-steps. Items of at least timedItemWalkers walkers
// are timed on either path; a run whose items are all smaller records
// no core_vp_sample_ns at all.
func TestSampleMetricsInlineMatchPooled(t *testing.T) {
	g := undirectedTestGraph(t, 400, 36)
	e := newEngine(t, g, algo.DeepWalk(), metricsConfig(2))
	defer e.Close()
	big := []Cohort{
		{Spec: algo.DeepWalk(), Walkers: 20000, Steps: 5, Seed: 1},
		{Spec: algo.Node2Vec(2, 0.5), Walkers: 1000, Steps: 3, Seed: 2},
		{Spec: algo.PageRankWalk(0.85), Walkers: 500, Steps: 4, Seed: 3},
	}
	small := []Cohort{
		{Spec: algo.DeepWalk(), Walkers: 2, Steps: 5, Seed: 1},
		{Spec: algo.Node2Vec(2, 0.5), Walkers: 2, Steps: 3, Seed: 2},
	}
	for _, tc := range []struct {
		name    string
		cohorts []Cohort
		timed   bool
	}{{"big-items", big, true}, {"small-items", small, false}} {
		t.Run(tc.name, func(t *testing.T) {
			var walkerSteps, walkers uint64
			for _, c := range tc.cohorts {
				walkerSteps += c.Walkers * uint64(c.Steps)
				walkers += c.Walkers
			}
			run := func(cutoff int) *obs.Report {
				defer func(old int) { walk.InlineCutoff = old }(walk.InlineCutoff)
				walk.InlineCutoff = cutoff
				res, err := e.RunMixed(tc.cohorts)
				if err != nil {
					t.Fatal(err)
				}
				return res.Report
			}
			inline, pooled := run(int(walkers)+1), run(1)
			for _, rep := range []*obs.Report{inline, pooled} {
				for _, name := range []string{"core_vp_walker_steps", "core_sample_kernel_walker_steps", "core_cohort_walker_steps"} {
					if v, _ := rep.Vector(name); v.Total() != walkerSteps {
						t.Errorf("%s sums to %d, want %d walker-steps", name, v.Total(), walkerSteps)
					}
				}
			}
			for _, c := range inline.Counters {
				if pc, _ := pooled.Counter(c.Name); c.Unit != "ns" && pc.Value != c.Value {
					t.Errorf("%s: inline %d, pooled %d", c.Name, c.Value, pc.Value)
				}
			}
			for _, v := range inline.Vectors {
				if v.Unit == "ns" {
					continue
				}
				if pv, _ := pooled.Vector(v.Name); !slices.Equal(pv.Values, v.Values) {
					t.Errorf("%s: inline %v, pooled %v", v.Name, v.Values, pv.Values)
				}
			}
			for _, h := range inline.Histograms {
				if ph, _ := pooled.Histogram(h.Name); h.Unit != "ns" && !reflect.DeepEqual(ph, h) {
					t.Errorf("%s: inline %+v, pooled %+v", h.Name, h, ph)
				}
			}
			for path, rep := range map[string]*obs.Report{"inline": inline, "pooled": pooled} {
				ns, _ := rep.Vector("core_vp_sample_ns")
				if got := ns.Total() != 0; got != tc.timed {
					t.Errorf("%s: core_vp_sample_ns total %d, want nonzero %v", path, ns.Total(), tc.timed)
				}
			}
		})
	}
}

// TestMetricsStableJSON verifies report stability end to end: two
// identically-seeded single-worker runs must serialize to byte-identical
// JSON once time-valued metrics are zeroed out of both.
func TestMetricsStableJSON(t *testing.T) {
	g := undirectedTestGraph(t, 300, 33)
	run := func() *obs.Report {
		e := newEngine(t, g, algo.DeepWalk(), metricsConfig(1))
		defer e.Close()
		res, err := e.Run(1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	scrub := func(r *obs.Report) {
		for i := range r.Counters {
			if r.Counters[i].Unit == "ns" {
				r.Counters[i].Value = 0
			}
		}
		for i := range r.Vectors {
			if r.Vectors[i].Unit != "ns" {
				continue
			}
			for j := range r.Vectors[i].Values {
				r.Vectors[i].Values[j] = 0
			}
		}
		for i := range r.Histograms {
			if r.Histograms[i].Unit == "ns" {
				r.Histograms[i].Sum = 0
				r.Histograms[i].Buckets = nil
			}
		}
	}
	var bufA, bufB bytes.Buffer
	ra, rb := run(), run()
	scrub(ra)
	scrub(rb)
	if err := ra.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("same-seed reports differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
}

// TestMetricsSteadyStateStepCost extends the zero-alloc acceptance
// criterion to the metered engine: recording counters, histograms, and
// pprof labels must not allocate in the step loop (all contexts and metric
// cells are resolved at build time).
func TestMetricsSteadyStateStepCost(t *testing.T) {
	g := undirectedTestGraph(t, 400, 34)
	e := newEngine(t, g, algo.DeepWalk(), metricsConfig(4))
	defer e.Close()

	mallocsFor := func(steps int) uint64 {
		if _, err := e.Run(2000, steps); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(2000, steps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	short := mallocsFor(2)
	long := mallocsFor(42)
	// Per-run work (episode setup, the end-of-run snapshot) allocates; the
	// 40 extra metered steps must not.
	const slack = 20
	if long > short+slack {
		t.Errorf("42-step metered run allocated %d objects vs %d for 2 steps: ~%.1f allocs per extra step, want 0",
			long, short, float64(long-short)/40)
	}
}

// benchStepEngine builds a small warm engine for the per-step overhead
// benchmarks.
func benchStepEngine(b *testing.B, metrics bool) *Engine {
	b.Helper()
	g := undirectedTestGraph(b, 600, 35)
	cfg := Config{Workers: 2, Seed: 7, Metrics: metrics, Part: part.Config{TargetGroups: 16}}
	e, err := New(g, algo.DeepWalk(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(4000, 2); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineStepMetricsOff/On guard the acceptance criterion that
// the metrics-off hot path compiles down to nil checks: compare ns/op of
// the two to measure the recording overhead (EXPERIMENTS.md records the
// numbers).
func BenchmarkEngineStepMetricsOff(b *testing.B) {
	e := benchStepEngine(b, false)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(4000, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineStepMetricsOn(b *testing.B) {
	e := benchStepEngine(b, true)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(4000, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAcquireClose measures one session acquisition and
// close on a warm engine of BenchmarkSparseMixedWave's plan, with engine
// metrics off and on: the per-wave cost a server pays to run each wave
// on its own session and fold its metrics into the engine aggregate.
func BenchmarkSessionAcquireClose(b *testing.B) {
	for _, metrics := range []bool{false, true} {
		b.Run("metrics="+onOff(metrics), func(b *testing.B) {
			e := sparseWaveEngine(b, metrics)
			defer e.Close()
			if _, err := e.RunMixed(sparseWave(1)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := e.NewSession(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
