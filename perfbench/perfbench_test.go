package main

import (
	"testing"
	"time"

	"flashmob"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 10, 10},
		{90, 18, 2},
		{99, 20, 0},
		{100, 20, 0},
		{1, 1, 19},
	}
	for _, c := range cases {
		v, b := percentile(xs, c.p)
		if v != c.want || b != c.beyond {
			t.Errorf("p%v of 1..20 = (%v, %d beyond), want (%v, %d)", c.p, v, b, c.want, c.beyond)
		}
	}
	if xs[0] != 20 {
		t.Errorf("percentile reordered its input")
	}
	if v, b := percentile([]float64{7}, 90); v != 7 || b != 0 {
		t.Errorf("p90 of one sample = (%v, %d), want (7, 0)", v, b)
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("p50 of nothing = (%v, %d), want (0, 0)", v, b)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// testGraph is 0→1, 1→2, 2→0 plus a dead end at 3 and a hub at 4 whose
// 100 targets (even IDs 0..198, only 0–3 of them real vertices but the
// checker does not care) exercise the sampled adjacency index.
func testGraph() *flashmob.Graph {
	g := &flashmob.Graph{Offsets: []uint64{0, 1, 2, 3, 3}, Targets: []flashmob.VID{1, 2, 0}}
	for v := flashmob.VID(0); v < 200; v += 2 {
		g.Targets = append(g.Targets, v)
	}
	g.Offsets = append(g.Offsets, uint64(len(g.Targets)))
	return g
}

func TestCheckerRules(t *testing.T) {
	c, err := newChecker(testGraph())
	if err != nil {
		t.Fatal(err)
	}
	ok := func(p []flashmob.VID, tele bool) int {
		t.Helper()
		n, err := c.path(p, len(p)-1, tele)
		if err != nil {
			t.Errorf("path %v rejected: %v", p, err)
		}
		return n
	}
	bad := func(p []flashmob.VID, steps int, tele bool) {
		t.Helper()
		if _, err := c.path(p, steps, tele); err == nil {
			t.Errorf("path %v (%d steps) accepted", p, steps)
		}
	}
	ok([]flashmob.VID{0, 1, 2, 0}, false)
	ok([]flashmob.VID{3, 3, 3}, false) // stay at a dead end
	bad([]flashmob.VID{0, 2}, 1, false)
	bad([]flashmob.VID{0, 0}, 1, false) // a stay where the walker could move
	bad([]flashmob.VID{0, 1}, 2, false) // too short
	bad([]flashmob.VID{0, 9}, 1, false) // no such vertex
	if n := ok([]flashmob.VID{0, 2, 0}, true); n != 1 {
		t.Errorf("teleports counted %d, want 1", n)
	}

	// Ingested edges, undirected, one to a vertex past the base graph.
	bad([]flashmob.VID{3, 2}, 1, false)
	c.addEdges([][2]flashmob.VID{{2, 3}, {1, 5}}, true)
	ok([]flashmob.VID{3, 2, 3}, false)
	ok([]flashmob.VID{0, 1, 5, 1}, false)
	ok([]flashmob.VID{5, 5}, false) // a new vertex the walk reached before its edges
	bad([]flashmob.VID{0, 3}, 1, false)

	for v := flashmob.VID(0); v < 201; v++ {
		if got, want := c.isEdge(4, v), v%2 == 0 && v < 200; got != want {
			t.Errorf("isEdge(4, %d) = %v, want %v", v, got, want)
		}
	}
	if _, err := newChecker(&flashmob.Graph{Offsets: []uint64{0, 2}, Targets: []flashmob.VID{1, 0}}); err == nil {
		t.Errorf("unsorted adjacency accepted")
	}
}

func TestTeleportShare(t *testing.T) {
	if !teleportShareOK(150, 1000, damping) {
		t.Errorf("small samples must not be judged")
	}
	if !teleportShareOK(1500, 10000, damping) || teleportShareOK(100, 10000, damping) || teleportShareOK(3000, 10000, damping) {
		t.Errorf("teleport share bounds wrong")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.newID()
	tr.record(root, 1, "core.walk", at(10), at(30))
	tr.record(root, 1, "walk.paths", at(20), at(50)) // overlaps the first child
	tr.record(root, 1, "bench.check", at(70), at(80))
	tr.add(root, 0, 1, "serve.request", at(0), at(100))
	self := tr.selfNS()
	want := map[string]int64{"serve": 50e6, "core": 20e6, "walk": 30e6, "bench": 10e6}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
	var nilTracer *tracer
	nilTracer.record(0, 0, "core.walk", at(0), at(1)) // tracing off: no-op
}

// tinyRun generates a workload's inputs on a tiny graph of the same shape
// and runs it for a fraction of a second.
func tinyRun(t *testing.T, name string, scaleDiv uint32, trace bool) result {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scaleDiv = scaleDiv
	cfg := runConfig{w: w, seed: 7, seconds: 300 * time.Millisecond, trace: trace, inputs: t.TempDir()}
	if err := generate(w, cfg.seed, cfg.inputs); err != nil {
		t.Fatal(err)
	}
	ops, err := readSchedule(w.schedulePath(cfg.inputs, cfg.seed))
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var res result
	if w.serve {
		res, err = runServe(cfg, ops, tr)
	} else {
		res, err = runBulk(cfg, ops, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestClosedLoopTinyGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	res := tinyRun(t, "serve-mixed", 1000, false)
	for _, k := range []string{"setup_s", "walker_steps_per_s", "peak_rss_mb", "lat_p50_ms", "lat_p90_ms"} {
		if res.Metrics[k].Value <= 0 {
			t.Errorf("serve-mixed %s = %v, want > 0", k, res.Metrics[k].Value)
		}
	}
	res = tinyRun(t, "serve-churn", 1000, true)
	if res.Metrics["dyn.freezes"].Value == 0 {
		t.Errorf("serve-churn froze no ingests")
	}
	if _, ok := res.Metrics["self_share.serve"]; !ok {
		t.Errorf("traced run lacks self shares")
	}
}

func TestBulkTinyGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds engines")
	}
	res := tinyRun(t, "bulk-deepwalk", 80000, true)
	if res.Metrics["core.kernel_walker_steps.ps"].Value+res.Metrics["core.kernel_walker_steps.ds-regular"].Value == 0 {
		t.Errorf("traced bulk run recorded no kernel steps: %v", res.Metrics)
	}
}
