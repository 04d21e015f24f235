package ooc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/shard"
	"flashmob/internal/walk"
)

// onBothPaths runs body as subtests "pooled" and "inline": with
// walk.InlineCutoff at 0 every step of both engines hands its phases to
// the worker pool, above any walker count every step runs inline.
func onBothPaths(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name   string
		cutoff int
	}{{"pooled", 0}, {"inline", math.MaxInt}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(old int) { walk.InlineCutoff = old }(walk.InlineCutoff)
			walk.InlineCutoff = path.cutoff
			body(t)
		})
	}
}

// coreHistory runs the in-memory engine on the ooc engine's exact plan and
// seed and returns its recorded trajectories.
func coreHistory(t *testing.T, g *graph.CSR, e *Engine, seed uint64, walkers uint64, steps int) *core.Result {
	t.Helper()
	ce, err := core.New(g, algo.DeepWalk(), core.Config{
		Workers: 2, Seed: seed, Plan: e.Plan(), RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	res, err := ce.Run(walkers, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffHistories fails the test at the first diverging (step, walker) cell.
func diffHistories(t *testing.T, label string, got, want interface {
	NumSteps() int
	NumWalkers() int
	At(i, j int) graph.VID
}) {
	t.Helper()
	if got.NumSteps() != want.NumSteps() || got.NumWalkers() != want.NumWalkers() {
		t.Fatalf("%s: history shape (%d steps × %d walkers) != (%d × %d)",
			label, got.NumSteps(), got.NumWalkers(), want.NumSteps(), want.NumWalkers())
	}
	for i := 0; i < got.NumSteps(); i++ {
		for j := 0; j < got.NumWalkers(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: first divergence at step %d walker %d: ooc %d, core %d",
					label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestOOCMatchesInMemoryEngine pins the determinism claim: for every
// sample-worker count and resident budget (none, part of the graph, all
// of it), ooc trajectories are bitwise-identical to internal/core running
// the same plan and seed — the ooc analogue of
// core.TestConcurrentRunsMatchSerial. Each engine also runs a sparse
// walk, whose walker-free partitions separate the resident runs' chunks.
// Run under -race in CI.
func TestOOCMatchesInMemoryEngine(t *testing.T) {
	gf, g := writeGraph(t, 3000, 31)
	const seed, steps = 97, 8
	residents := []struct {
		name   string
		budget uint64
	}{
		{"none", 0},
		{"partial", gf.NumEdges() * graph.VIDBytes / 4},
		{"all", 1 << 40},
	}
	refs := map[uint64]*core.Result{}
	for _, workers := range []int{1, 2, 4} {
		for _, rb := range residents {
			name := fmt.Sprintf("workers%d-%s", workers, rb.name)
			t.Run(name, func(t *testing.T) {
				onBothPaths(t, func(t *testing.T) {
					e, err := New(gf, Config{
						BlockBudget: 32 << 10, Seed: seed, RecordHistory: true,
						Workers: workers, ResidentBudget: rb.budget,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					if n, nvp := e.ResidentPartitions(), e.Plan().NumVPs(); rb.name == "partial" && (n == 0 || n == nvp) {
						t.Fatalf("partial budget pinned %d of %d partitions", n, nvp)
					}
					for _, walkers := range []uint64{2500, 40} {
						res, err := e.Run(context.Background(), walkers, steps)
						if err != nil {
							t.Fatal(err)
						}
						if refs[walkers] == nil {
							refs[walkers] = coreHistory(t, g, e, seed, walkers, steps)
						}
						diffHistories(t, fmt.Sprintf("%s/%d walkers", name, walkers), res.History, refs[walkers].History)
					}
				})
			})
		}
	}
}

// TestOOCMatchesCoreWithSubShards forces the sub-shard path (chunks cut at
// core.SubShardSize boundaries with per-sub-shard seeds) and checks the
// cut discipline still matches the in-memory engine bit for bit.
func TestOOCMatchesCoreWithSubShards(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		old := core.SubShardSize
		core.SubShardSize = 256
		defer func() { core.SubShardSize = old }()

		gf, g := writeGraph(t, 1500, 33)
		const seed, walkers, steps = 41, uint64(4000), 6
		e, err := New(gf, Config{
			BlockBudget: 1 << 20, Seed: seed, RecordHistory: true, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Run(context.Background(), walkers, steps)
		if err != nil {
			t.Fatal(err)
		}
		ref := coreHistory(t, g, e, seed, walkers, steps)
		diffHistories(t, "subshards", res.History, ref.History)
	})
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (with slack for runtime background goroutines) or the deadline
// passes, returning the final count.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOOCRunCancellation covers the context satellite: a canceled context
// stops the run promptly, reports ctx.Err(), and leaves no prefetch or
// pool goroutine behind.
func TestOOCRunCancellation(t *testing.T) {
	gf, _ := writeGraph(t, 2000, 35)
	base := runtime.NumGoroutine()

	e, err := New(gf, Config{BlockBudget: 16 << 10, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled context: the run must not start stepping.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, 1000, 10); err != context.Canceled {
		t.Fatalf("pre-canceled run: err = %v, want context.Canceled", err)
	}

	// Mid-run cancellation: a run far too long to finish must stop once
	// the context fires, from inside the streaming loop.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx2, 2000, 1<<30)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("mid-run cancellation: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return within 10s")
	}

	e.Close()
	if n := waitGoroutines(base); n > base {
		t.Fatalf("goroutine leak: %d before, %d after cancel+Close", base, n)
	}
}

// TestOOCResidentTier checks the storage-tier knapsack end to end: pinned
// partitions stop being streamed, a full budget eliminates disk traffic
// entirely, and the resident metrics account for it.
func TestOOCResidentTier(t *testing.T) {
	gf, _ := writeGraph(t, 2000, 37)
	const seed, walkers, steps = 11, uint64(3000), 6

	run := func(budget uint64) *Result {
		t.Helper()
		e, err := New(gf, Config{
			BlockBudget: 16 << 10, Seed: seed, ResidentBudget: budget,
			Workers: 2, Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Run(context.Background(), walkers, steps)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run(0)
	if cold.ResidentHits != 0 || cold.Blocks == 0 {
		t.Fatalf("no-tier run: hits=%d blocks=%d", cold.ResidentHits, cold.Blocks)
	}

	partial := run(cold.BytesRead / uint64(steps) / 4) // ~25% of one step's volume
	if partial.ResidentHits == 0 {
		t.Fatal("partial budget pinned nothing")
	}
	if partial.BytesRead >= cold.BytesRead {
		t.Fatalf("resident tier did not reduce streaming: %d >= %d", partial.BytesRead, cold.BytesRead)
	}
	if hit, ok := partial.Report.Counter("ooc_resident_hits_total"); !ok || hit.Value != partial.ResidentHits {
		t.Fatalf("ooc_resident_hits_total = %+v, want %d", hit, partial.ResidentHits)
	}
	if saved, ok := partial.Report.Counter("ooc_resident_saved_bytes_total"); !ok || saved.Value == 0 {
		t.Fatal("ooc_resident_saved_bytes_total missing or zero")
	}
	if gb, ok := partial.Report.Gauge("ooc_resident_bytes"); !ok || gb.Value <= 0 {
		t.Fatal("ooc_resident_bytes gauge missing or zero")
	}

	full := run(1 << 40)
	if full.Blocks != 0 || full.BytesRead != 0 {
		t.Fatalf("full budget still streamed %d blocks / %d bytes", full.Blocks, full.BytesRead)
	}
	if full.ResidentHits == 0 {
		t.Fatal("full budget recorded no resident hits")
	}
}

// TestOOCPrefetchMetrics checks the reader's observability: raw pread
// time is accounted beside the sampler's wait for it.
func TestOOCPrefetchMetrics(t *testing.T) {
	gf, _ := writeGraph(t, 2000, 39)
	e, err := New(gf, Config{BlockBudget: 16 << 10, Seed: 5, Metrics: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rd, ok := res.Report.Counter("ooc_io_read_ns"); !ok || rd.Value == 0 {
		t.Fatal("ooc_io_read_ns missing or zero")
	}
}

// psHubPlan copies the ooc engine's plan with its first quarter of
// partitions — the hubs of a degree-sorted graph — switched to PS.
func psHubPlan(t *testing.T, p *part.Plan) *part.Plan {
	t.Helper()
	q := &part.Plan{V: p.V, GroupSizeLog: p.GroupSizeLog, Groups: slices.Clone(p.Groups)}
	pol := slices.Clone(q.Groups[0].Policies)
	for i := range pol[:max(1, len(pol)/4)] {
		pol[i] = profile.PS
	}
	q.Groups[0].Policies = pol
	if err := part.Finalize(q); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSparseCountDriversAgree: below the sparse switch, on a plan with PS
// partitions, every driver binds the sparse template and no PS kernel
// runs — RunSeeded, a RunMixed cohort, the sharded channel topology, an
// overlay session whose freeze added no new edge, and ooc, which
// direct-samples every partition, all produce bitwise-identical
// trajectories. Above the switch the same plan does run its PS kernels.
func TestSparseCountDriversAgree(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		old := core.SubShardSize
		core.SubShardSize = 64 // split the former PS chunks too
		defer func() { core.SubShardSize = old }()

		gf, g := writeGraph(t, 3000, 31)
		const seed, walkers, steps = 97, uint64(2500), 8
		oe, err := New(gf, Config{BlockBudget: 32 << 10, Seed: seed, RecordHistory: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer oe.Close()
		ce, err := core.New(g, algo.DeepWalk(), core.Config{
			Workers: 2, Seed: seed, Plan: psHubPlan(t, oe.Plan()), RecordHistory: true, Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ce.Close()
		if ce.SparseDSVPs() == 0 || walkers >= ce.SparseSwitch() {
			t.Fatalf("%d walkers must sit below W* = %d on a plan with PS partitions (%d)",
				walkers, ce.SparseSwitch(), ce.SparseDSVPs())
		}
		psSteps := func(r *obs.Report) (n uint64) {
			v, ok := r.Vector("core_sample_kernel_walker_steps")
			if !ok {
				t.Fatal("kernel vector missing")
			}
			for i, l := range v.Labels {
				if l == "ps" || l == "ps-weighted" {
					n += v.Values[i]
				}
			}
			return n
		}

		ctx := context.Background()
		s, err := ce.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := s.RunSeeded(seed, walkers, steps)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := psSteps(solo.Report); n != 0 {
			t.Fatalf("solo run below W* took %d PS walker-steps", n)
		}
		if c, _ := solo.Report.Counter("core_sample_subshards_total"); c.Value == 0 {
			t.Fatal("no chunk was split into sub-shards")
		}

		cohorts := []core.Cohort{{Spec: algo.DeepWalk(), Walkers: walkers, Steps: steps, Seed: seed}}
		mixed, err := ce.RunMixed(cohorts)
		if err != nil {
			t.Fatal(err)
		}
		if n := psSteps(mixed.Report); n != 0 {
			t.Fatalf("mixed cohort below W* took %d PS walker-steps", n)
		}
		diffHistories(t, "mixed", mixed.Cohorts[0].History, solo.History)

		topo, err := shard.New(ce, 2)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := topo.RunMixed(ctx, cohorts)
		if err != nil {
			t.Fatal(err)
		}
		diffHistories(t, "sharded", sharded.Cohorts[0].History, solo.History)

		// A freeze of edges the base already holds builds no overlay.
		var dup []graph.Edge
		for _, x := range g.Neighbors(0)[:2] {
			dup = append(dup, graph.Edge{Src: 0, Dst: x})
		}
		ov, err := core.BuildOverlay(ce, dup)
		if err != nil {
			t.Fatal(err)
		}
		ovs, err := ce.NewSessionOverlay(ctx, ov)
		if err != nil {
			t.Fatal(err)
		}
		overlaid, err := ovs.RunSeeded(seed, walkers, steps)
		ovs.Close()
		if err != nil {
			t.Fatal(err)
		}
		diffHistories(t, "overlay", overlaid.History, solo.History)

		streamed, err := oe.Run(ctx, walkers, steps)
		if err != nil {
			t.Fatal(err)
		}
		diffHistories(t, "ooc", streamed.History, solo.History)

		dense, err := ce.Run(ce.SparseSwitch(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if psSteps(dense.Report) == 0 {
			t.Fatal("run at W* took no PS walker-steps")
		}
	})
}
