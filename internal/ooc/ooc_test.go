package ooc

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
)

// writeGraph builds an undirected power-law graph and writes it to disk,
// returning the open file plus the in-memory reference.
func writeGraph(t *testing.T, n uint32, seed uint64) (*graph.File, *graph.CSR) {
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
	g := graph.SortByDegreeDesc(res.Graph).Graph
	path := filepath.Join(t.TempDir(), "graph.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gf.Close() })
	return gf, g
}

func TestOOCValidWalks(t *testing.T) {
	gf, g := writeGraph(t, 2000, 1)
	e, err := New(gf, Config{BlockBudget: 8 << 10, Seed: 2, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 3000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 30000 {
		t.Fatalf("TotalSteps = %d", res.TotalSteps)
	}
	h := res.History
	for j := 0; j < h.NumWalkers(); j++ {
		for i := 0; i+1 < h.NumSteps(); i++ {
			u, v := h.At(i, j), h.At(i+1, j)
			if u == v && g.Degree(u) == 0 {
				continue
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("walker %d step %d: %d→%d not an edge", j, i, u, v)
			}
		}
	}
	if res.BytesRead == 0 {
		t.Error("no bytes streamed")
	}
	if res.StreamBandwidth() <= 0 {
		t.Error("bandwidth not positive")
	}
}

func TestOOCStationaryDistribution(t *testing.T) {
	// The out-of-core engine runs the identical stochastic process: visit
	// shares must approach deg/Σdeg on an undirected graph.
	gf, g := writeGraph(t, 300, 3)
	e, err := New(gf, Config{BlockBudget: 32 << 10, Seed: 4, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 40000, 12)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	counts := make([]float64, g.NumVertices())
	last := h.NumSteps() - 1
	for j := 0; j < h.NumWalkers(); j++ {
		counts[h.At(last, j)]++
	}
	sumDeg := float64(g.NumEdges())
	for v := uint32(0); v < 8; v++ {
		want := float64(g.Degree(v)) / sumDeg
		got := counts[v] / float64(h.NumWalkers())
		if want > 0.01 && math.Abs(got-want) > 0.25*want {
			t.Errorf("vertex %d: share %.4f, stationary %.4f", v, got, want)
		}
	}
}

func TestOOCTinyBudgetManyPartitions(t *testing.T) {
	// A budget barely above the largest adjacency forces many partitions;
	// the walk must still be exact.
	gf, g := writeGraph(t, 500, 5)
	maxAdj := uint64(0)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := uint64(g.Degree(v)); d > maxAdj {
			maxAdj = d
		}
	}
	e, err := New(gf, Config{BlockBudget: maxAdj * 4 * 3, Seed: 6, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Plan().NumVPs() < 8 {
		t.Fatalf("expected many partitions under tiny budget, got %d", e.Plan().NumVPs())
	}
	res, err := e.Run(context.Background(), 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	for j := 0; j < h.NumWalkers(); j++ {
		for i := 0; i+1 < h.NumSteps(); i++ {
			u, v := h.At(i, j), h.At(i+1, j)
			if u == v && g.Degree(u) == 0 {
				continue
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("%d→%d not an edge", u, v)
			}
		}
	}
}

func TestOOCBudgetTooSmall(t *testing.T) {
	gf, _ := writeGraph(t, 500, 7)
	if _, err := New(gf, Config{BlockBudget: 8}); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

func TestOOCSkipsEmptyPartitions(t *testing.T) {
	// With a single walker, at most one block is streamed per step.
	gf, _ := writeGraph(t, 2000, 8)
	e, err := New(gf, Config{BlockBudget: 16 << 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Total volume must be far below 10 full-graph scans.
	fullScan := gf.NumEdges() * 4
	if res.BytesRead >= fullScan*2 {
		t.Errorf("streamed %dB for one walker; empty partitions not skipped (full scan = %dB)",
			res.BytesRead, fullScan)
	}
}

func TestOOCErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil file accepted")
	}
	gf, _ := writeGraph(t, 100, 10)
	e, err := New(gf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(context.Background(), 10, 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestOOCDefaultWalkers(t *testing.T) {
	gf, _ := writeGraph(t, 128, 11)
	e, err := New(gf, Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walkers != uint64(gf.NumVertices()) {
		t.Errorf("walkers = %d, want |V|", res.Walkers)
	}
}

// TestOOCRunAfterClose: a closed engine refuses a run with core.ErrClosed
// instead of submitting to its released pool.
func TestOOCRunAfterClose(t *testing.T) {
	gf, _ := writeGraph(t, 200, 13)
	e, err := New(gf, Config{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Run(context.Background(), 100, 2); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("run after Close: err = %v, want core.ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestOOCWarmRunAllocs bounds what a warm run allocates: the walker
// arrays, shuffler and block buffers are held by the engine and its
// parked session, so a repeat run allocates only its result and per-step
// bookkeeping — no walker-sized (78 KiB here) or block-sized (128 KiB)
// array.
func TestOOCWarmRunAllocs(t *testing.T) {
	gf, _ := writeGraph(t, 20000, 15)
	e, err := New(gf, Config{BlockBudget: 256 << 10, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Run(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Run(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("warm 3-step run: %d B in %d objects", bytes, objects)
	if bytes >= 32<<10 {
		t.Errorf("warm 3-step run allocated %d B in %d objects, want under 32 KiB", bytes, objects)
	}
}

// TestOOCUnsortedGraph: the engine accepts a file that is not sorted by
// degree, and walks it exactly. Partitions whose first and last vertices
// share a degree while the vertices between them do not must not take
// the uniform-degree kernel.
func TestOOCUnsortedGraph(t *testing.T) {
	const n = 96
	g := &graph.CSR{Offsets: make([]uint64, n+1)}
	for v := uint32(0); v < n; v++ {
		d := uint32(1)
		if v%4 == 1 {
			d = 3
		}
		for k := uint32(1); k <= d; k++ {
			g.Targets = append(g.Targets, (v+k)%n)
		}
		slices.Sort(g.Targets[g.Offsets[v]:]) // HasEdge searches sorted adjacency
		g.Offsets[v+1] = uint64(len(g.Targets))
	}
	if graph.IsDegreeSorted(g) {
		t.Fatal("test graph is degree-sorted")
	}
	path := filepath.Join(t.TempDir(), "unsorted.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	e, err := New(gf, Config{BlockBudget: 64, Seed: 4, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	for j := 0; j < h.NumWalkers(); j++ {
		for i := 0; i+1 < h.NumSteps(); i++ {
			if u, v := h.At(i, j), h.At(i+1, j); !g.HasEdge(u, v) {
				t.Fatalf("walker %d step %d: %d→%d not an edge", j, i, u, v)
			}
		}
	}
}
