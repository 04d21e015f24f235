package shard

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/part"
	"flashmob/internal/profile"
)

// testGraph builds a degree-sorted undirected power-law graph — the
// engine's production layout, which is what makes shard ranges
// contiguous in the degree-sorted vertex space.
func testGraph(t testing.TB, n uint32, seed uint64) *graph.CSR {
	t.Helper()
	dir, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: n, AvgDegree: 6, Alpha: 0.7, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for v := uint32(0); v < dir.NumVertices(); v++ {
		for _, w := range dir.Neighbors(v) {
			if v != w {
				edges = append(edges, graph.Edge{Src: v, Dst: w})
			}
		}
	}
	res, err := graph.Build(edges, graph.BuildOptions{Undirected: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return graph.SortByDegreeDesc(res.Graph).Graph
}

func testEngine(t testing.TB, g *graph.CSR, spec algo.Spec) *core.Engine {
	t.Helper()
	e, err := core.New(g, spec, core.Config{
		Workers: 2, Seed: 11, Planner: core.PlannerMCKP, RecordHistory: true,
		Part: part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func historiesMatch(t *testing.T, tag string, a, b interface {
	NumSteps() int
	NumWalkers() int
	At(i, j int) graph.VID
}) {
	t.Helper()
	if a.NumSteps() != b.NumSteps() || a.NumWalkers() != b.NumWalkers() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, a.NumSteps(), a.NumWalkers(), b.NumSteps(), b.NumWalkers())
	}
	for i := 0; i < a.NumSteps(); i++ {
		for j := 0; j < a.NumWalkers(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("%s: step %d walker %d: %d vs %d", tag, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// TestTopologyBitwiseIdentical is the tentpole's core claim: sharded
// trajectories are bitwise-identical to the single-engine RunMixed for
// shard counts {1, 2, 4}, across a mixed cohort batch (first-order,
// node2vec aux channels, stop-prob restarts, an order-3 history walk,
// ragged step counts — so one wave carries 0, 1 and 2 aux channels).
// Shard count 1 is the degenerate topology — still exercising the
// exchange barrier machinery with zero peers. The subshard leg shrinks
// core.SubShardSize so oversized chunks split and the sub-shard item
// seeds are checked across shards too.
func TestTopologyBitwiseIdentical(t *testing.T) {
	g := testGraph(t, 800, 3)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()

	cohorts := []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: 500, Steps: 8, Seed: 41},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 300, Steps: 5, Seed: 42},
		{Spec: algo.PageRankWalk(0.85), Walkers: 200, Steps: 8, Seed: 43},
		{Spec: algo.SelfAvoiding(2, 6, 0.5), Walkers: 250, Steps: 6, Seed: 44},
	}
	for _, leg := range []struct {
		name     string
		subShard uint64
	}{{"default", core.SubShardSize}, {"subshard", 16}} {
		t.Run(leg.name, func(t *testing.T) {
			defer func(old uint64) { core.SubShardSize = old }(core.SubShardSize)
			core.SubShardSize = leg.subShard
			checkTopologyBitwise(t, e, cohorts)
		})
	}
}

// checkTopologyBitwise runs cohorts on the single engine and on 1, 2 and
// 4 in-process shards and demands equal histories and VPSteps, and on
// more than one shard balanced, non-zero emigrant counts.
func checkTopologyBitwise(t *testing.T, e *core.Engine, cohorts []core.Cohort) {
	t.Helper()
	ref, err := e.RunMixed(cohorts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		topo, err := New(e, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res, err := topo.RunMixed(context.Background(), cohorts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for k := range cohorts {
			historiesMatch(t, cohorts[k].Spec.Name, ref.Cohorts[k].History, res.Cohorts[k].History)
		}
		// The per-partition walker-step weights must match too: shards
		// sampled exactly the partition chunks the single engine did.
		for vp := range ref.VPSteps {
			if ref.VPSteps[vp] != res.VPSteps[vp] {
				t.Fatalf("shards=%d: VPSteps[%d] = %d, single-engine %d", shards, vp, res.VPSteps[vp], ref.VPSteps[vp])
			}
		}
		rep := topo.MetricsReport()
		if shards > 1 {
			emi := vecTotal(t, rep, "shard_emigrants_total")
			if emi == 0 {
				t.Fatalf("shards=%d: no emigrants on a power-law graph", shards)
			}
			if imm := vecTotal(t, rep, "shard_immigrants_total"); emi != imm {
				t.Fatalf("shards=%d: emigrants %d != immigrants %d", shards, emi, imm)
			}
		}
	}
}

// TestOneExchangeRoundPerSuperstep pins the wave superstep: cohorts of
// 8, 5 and 8 steps make 8 supersteps, and every superstep but the last
// is one exchange round carrying every cohort's emigrants — one frame
// per ordered shard pair — so a run sends S·(S−1)·7 frames.
func TestOneExchangeRoundPerSuperstep(t *testing.T) {
	g := testGraph(t, 800, 3)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	cohorts := []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: 200, Steps: 8, Seed: 61},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 100, Steps: 5, Seed: 62},
		{Spec: algo.DeepWalk(), Walkers: 150, Steps: 8, Seed: 63},
	}
	for _, shards := range []int{2, 4} {
		topo, err := New(e, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.RunMixed(context.Background(), cohorts); err != nil {
			t.Fatal(err)
		}
		want := uint64(shards * (shards - 1) * 7)
		if got := vecTotal(t, topo.MetricsReport(), "shard_exchange_frames_total"); got != want {
			t.Errorf("shards=%d: %d frames per run, want %d", shards, got, want)
		}
	}
}

// TestTopologyRepeatedRunsAndConcurrency pins that one Topology serves
// repeated and concurrent RunMixed calls with identical results — the
// serving layer's usage pattern.
func TestTopologyRepeatedRunsAndConcurrency(t *testing.T) {
	g := testGraph(t, 400, 7)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	topo, err := New(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	cohorts := []core.Cohort{{Spec: algo.DeepWalk(), Walkers: 200, Steps: 6, Seed: 5}}
	first, err := topo.RunMixed(context.Background(), cohorts)
	if err != nil {
		t.Fatal(err)
	}
	const par = 3
	results := make([]*core.MixedResult, par)
	errs := make([]error, par)
	done := make(chan int, par)
	for i := 0; i < par; i++ {
		go func(i int) {
			results[i], errs[i] = topo.RunMixed(context.Background(), cohorts)
			done <- i
		}(i)
	}
	for i := 0; i < par; i++ {
		<-done
	}
	for i := 0; i < par; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		historiesMatch(t, "concurrent", first.Cohorts[0].History, results[i].Cohorts[0].History)
	}
}

// TestTopologyCancellation cancels mid-run and demands a clean error
// with no goroutine leaks — the chan-transport half of the drain
// guarantee (the TCP half lives in worker_test.go).
func TestTopologyCancellation(t *testing.T) {
	g := testGraph(t, 400, 9)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	topo, err := New(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := topo.RunMixed(ctx, []core.Cohort{{Spec: algo.DeepWalk(), Walkers: 300, Steps: 50, Seed: 1}}); err == nil {
		t.Fatal("canceled run returned nil error")
	}
	// A mid-run cancel: let some supersteps happen, then pull the plug.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	_, err = topo.RunMixed(ctx2, []core.Cohort{{Spec: algo.DeepWalk(), Walkers: 2000, Steps: 5000, Seed: 1}})
	if err == nil {
		t.Log("run finished before cancel; still checking for leaks")
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestTopologyBindsByGlobalCohortSize: every shard binds a cohort's
// kernel template by the cohort's global walker count, as a single
// engine does, although each shard steps only part of it. On a plan that
// pre-samples its hubs, a cohort just above the sparse switch — each
// shard's local share below it — runs the plan's PS kernels and must
// match the single-engine run bitwise, beside a cohort below the switch.
func TestTopologyBindsByGlobalCohortSize(t *testing.T) {
	g := testGraph(t, 800, 3)
	e, err := core.New(g, algo.DeepWalk(), core.Config{
		Workers: 2, Seed: 11, Planner: core.PlannerMCKP, RecordHistory: true, Metrics: true,
		// Caches scaled down with the graph, so the plan pre-samples hubs.
		Model: profile.NewAnalyticalModel(mem.ScaledGeometry(100)),
		Part:  part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ws := e.SparseSwitch()
	if e.SparseDSVPs() == 0 || ws < 2 {
		t.Fatalf("plan must pre-sample hubs below a switch above 1 (W* = %d, %d PS partitions)", ws, e.SparseDSVPs())
	}
	cohorts := []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: ws + 1, Steps: 6, Seed: 51},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: ws / 2, Steps: 4, Seed: 52},
	}
	ref, err := e.RunMixed(cohorts)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := ref.Report.Vector("core_sample_kernel_walker_steps")
	if i := slices.Index(v.Labels, "ps"); i < 0 || v.Values[i] == 0 {
		t.Fatal("the cohort at the switch ran no PS kernel")
	}
	topo, err := New(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.RunMixed(context.Background(), cohorts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cohorts {
		historiesMatch(t, cohorts[k].Spec.Name, ref.Cohorts[k].History, res.Cohorts[k].History)
	}
}
