package dyn

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// testEdges draws n random directed edges over v vertices.
func testEdges(n int, v uint32, seed uint64) []graph.Edge {
	src := rng.NewXorShift1024Star(seed)
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: rng.Uint32n(src, v), Dst: rng.Uint32n(src, v)}
	}
	return edges
}

// buildBase assembles an undirected external-numbering graph exactly as the
// public facade's BuildGraph does.
func buildBase(t testing.TB, edges []graph.Edge) *graph.CSR {
	t.Helper()
	res, err := graph.Build(edges, graph.BuildOptions{
		Undirected: true, RemoveSelfLoops: true, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func testConfig() Config {
	return Config{
		Workers: 2, Seed: 17, Undirected: true, RecordHistory: true,
		TargetGroups: 8, MaxBins: 64, Metrics: true,
	}
}

func historiesEqual(a, b *walk.History) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumSteps() != b.NumSteps() || a.NumWalkers() != b.NumWalkers() {
		return false
	}
	for i := 0; i < a.NumSteps(); i++ {
		for j := 0; j < a.NumWalkers(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestCompactedMatchesColdBuild is the PR's central determinism claim: a
// compacted epoch's trajectories are bitwise-identical to a cold System
// built over the same edge set — including new vertices, dropped
// self-loops, and in-batch duplicates in the delta.
func TestCompactedMatchesColdBuild(t *testing.T) {
	base := testEdges(2000, 400, 1)
	delta := testEdges(300, 420, 2)                     // endpoints beyond the base |V|
	delta = append(delta, graph.Edge{Src: 7, Dst: 7})   // self-loop
	delta = append(delta, delta[0], delta[1])           // duplicates
	delta = append(delta, graph.Edge{Src: 450, Dst: 3}) // new vertex

	dynSys, err := New(buildBase(t, base), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer dynSys.Close()
	if _, err := dynSys.Ingest(delta); err != nil {
		t.Fatal(err)
	}
	if _, err := dynSys.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := dynSys.Compact(); err != nil {
		t.Fatal(err)
	}

	assertMatchesCold(t, dynSys, append(append([]graph.Edge{}, base...), delta...))

	// A second leg walks every epoch it passes — base, overlay, compacted —
	// before compacting twice, so a compaction whose plan depended on
	// observed walker load would drift from the cold build.
	walked, err := New(buildBase(t, base), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer walked.Close()
	delta2 := testEdges(60, 400, 3) // inside the vertex space: plan geometry holds
	for _, d := range [][]graph.Edge{delta, delta2} {
		walkCurrent(t, walked)
		if _, err := walked.Ingest(d); err != nil {
			t.Fatal(err)
		}
		if _, err := walked.Freeze(); err != nil {
			t.Fatal(err)
		}
		walkCurrent(t, walked)
		if _, err := walked.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	union := append(append(append([]graph.Edge{}, base...), delta...), delta2...)
	assertMatchesCold(t, walked, union)
}

// walkCurrent runs a seeded solo walk and a two-cohort mixed wave on the
// system's current epoch.
func walkCurrent(t *testing.T, s *System) {
	t.Helper()
	ep, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Release()
	if _, err := ep.WalkSeeded(context.Background(), 41, 400, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.WalkMixed(context.Background(), []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: 300, Steps: 4, Seed: 7},
		{Spec: algo.DeepWalk(), Walkers: 50, Steps: 6, Seed: 8},
	}); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesCold checks that dynSys's current epoch is compacted and
// walks bitwise like a cold System built over edges.
func assertMatchesCold(t *testing.T, dynSys *System, edges []graph.Edge) {
	t.Helper()
	coldSys, err := New(buildBase(t, edges), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coldSys.Close()

	epDyn, err := dynSys.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer epDyn.Release()
	epCold, err := coldSys.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer epCold.Release()

	if !epDyn.Compacted() {
		t.Fatal("post-compaction epoch still carries an overlay")
	}
	if gd, gc := epDyn.Graph(), epCold.Graph(); gd.NumVertices() != gc.NumVertices() ||
		gd.NumEdges() != gc.NumEdges() {
		t.Fatalf("compacted graph %dv/%de, cold build %dv/%de",
			gd.NumVertices(), gd.NumEdges(), gc.NumVertices(), gc.NumEdges())
	}
	var pd, pc bytes.Buffer
	if err := epDyn.st.bld.eng.Plan().WriteJSON(&pd); err != nil {
		t.Fatal(err)
	}
	if err := epCold.st.bld.eng.Plan().WriteJSON(&pc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pd.Bytes(), pc.Bytes()) {
		t.Fatalf("compacted plan differs from cold build's:\n%s\nvs\n%s", pd.Bytes(), pc.Bytes())
	}
	a, err := epDyn.WalkSeeded(context.Background(), 99, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epCold.WalkSeeded(context.Background(), 99, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(a.History, b.History) {
		t.Fatal("compacted epoch diverged from cold build of the same edge set")
	}
}

// TestFreezeVisibilityAndDeferral: frozen edges become walkable as overlay
// delta; new-vertex edges defer until compaction grows the vertex space.
func TestFreezeVisibilityAndDeferral(t *testing.T) {
	base := testEdges(2000, 400, 3)
	s, err := New(buildBase(t, base), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ep0, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	baseV := ep0.Graph().NumVertices()
	ep0.Release()

	if _, err := s.Ingest([]graph.Edge{
		{Src: 1, Dst: 390}, {Src: 2, Dst: 391},
		{Src: baseV + 10, Dst: 0}, // deferred: new vertex
	}); err != nil {
		t.Fatal(err)
	}
	id, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("first freeze published epoch %d, want 2", id)
	}
	ep, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Compacted() || ep.DeltaEdges() == 0 {
		t.Fatalf("frozen epoch has no overlay delta (delta=%d)", ep.DeltaEdges())
	}
	if ep.DeferredEdges() == 0 {
		t.Fatal("new-vertex edge was not deferred")
	}
	if _, err := ep.WalkSeeded(context.Background(), 5, 300, 4); err != nil {
		t.Fatal(err)
	}
	ep.Release()

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ep2, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer ep2.Release()
	if !ep2.Compacted() || ep2.DeferredEdges() != 0 {
		t.Fatal("compaction left an overlay or deferred edges behind")
	}
	if ep2.Graph().NumVertices() <= baseV {
		t.Fatalf("compaction did not grow the vertex space (%d → %d)",
			baseV, ep2.Graph().NumVertices())
	}
	st := s.Stats()
	if st.Epoch != 3 || st.Freezes != 1 || st.Compactions != 1 {
		t.Fatalf("stats after freeze+compact: %+v", st)
	}
}

// TestOverlayEpochSpecRestriction: overlay epochs admit only first-order
// history-free cohorts; the restriction lifts after compaction.
func TestOverlayEpochSpecRestriction(t *testing.T) {
	s, err := New(buildBase(t, testEdges(2000, 400, 4)), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest([]graph.Edge{{Src: 0, Dst: 399}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	ep, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ep.WalkMixed(context.Background(), []core.Cohort{
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 100, Steps: 3, Seed: 1},
	})
	ep.Release()
	if err == nil || !strings.Contains(err.Error(), "first-order") {
		t.Fatalf("node2vec on overlay epoch: err = %v, want first-order rejection", err)
	}

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ep2, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer ep2.Release()
	if _, err := ep2.WalkMixed(context.Background(), []core.Cohort{
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 100, Steps: 3, Seed: 1},
	}); err != nil {
		t.Fatalf("node2vec on compacted epoch: %v", err)
	}
}

// TestConcurrentWalksAcrossCompactions is the compaction-vs-serve
// interference test (run it under -race): walker goroutines stream walks
// while edges land and compactions fire. In-flight epochs are never
// invalidated (no walk errors), epoch IDs observed by walkers are
// monotone per goroutine, and after everything drains exactly one epoch —
// the current one — remains referenced (no epoch leaks).
func TestConcurrentWalksAcrossCompactions(t *testing.T) {
	s, err := New(buildBase(t, testEdges(3000, 500, 5)), testConfig())
	if err != nil {
		t.Fatal(err)
	}

	const walkers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, walkers)
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var lastID uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep, err := s.Acquire()
				if err != nil {
					errCh <- err
					return
				}
				if ep.ID() < lastID {
					ep.Release()
					errCh <- errNonMonotone{ep.ID(), lastID}
					return
				}
				lastID = ep.ID()
				_, err = ep.WalkSeeded(context.Background(), seed+uint64(i), 200, 4)
				ep.Release()
				if err != nil {
					errCh <- err
					return
				}
			}
		}(uint64(100 * (w + 1)))
	}

	src := rng.NewXorShift1024Star(99)
	for round := 0; round < 6; round++ {
		batch := make([]graph.Edge, 40)
		for i := range batch {
			batch[i] = graph.Edge{Src: rng.Uint32n(src, 520), Dst: rng.Uint32n(src, 520)}
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Freeze(); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := s.Stats()
	if st.Compactions < 3 {
		t.Fatalf("only %d compactions completed, want ≥ 3", st.Compactions)
	}
	if live := st.EpochsCreated - st.EpochsRetired; live != 1 {
		t.Fatalf("epoch leak: %d created − %d retired = %d live, want 1 (the current epoch)",
			st.EpochsCreated, st.EpochsRetired, live)
	}
	s.Close()
	st = s.Stats()
	if st.EpochsCreated != st.EpochsRetired {
		t.Fatalf("after Close: %d created, %d retired", st.EpochsCreated, st.EpochsRetired)
	}
}

type errNonMonotone [2]uint64

func (e errNonMonotone) Error() string {
	return fmt.Sprintf("epoch went backwards: %d after %d", e[0], e[1])
}

// TestAutoCompaction: CompactEvery freezes trigger the background
// compactor.
func TestAutoCompaction(t *testing.T) {
	cfg := testConfig()
	cfg.CompactEvery = 2
	s, err := New(buildBase(t, testEdges(2000, 400, 6)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint32(0); i < 2; i++ {
		if _, err := s.Ingest([]graph.Edge{{Src: i, Dst: 399 - i}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRejects pins the admission errors: weighted graphs, weighted
// algorithms, weighted delta edges, and use after Close.
func TestRejects(t *testing.T) {
	wres, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 0, Weight: 2}},
		graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(wres.Graph, testConfig()); err == nil {
		t.Fatal("New accepted a weighted graph")
	}

	g := buildBase(t, testEdges(500, 100, 7))
	wcfg := testConfig()
	wcfg.Algorithm = algo.DeepWalk()
	wcfg.Algorithm.Weighted = true
	if _, err := New(g, wcfg); err == nil {
		t.Fatal("New accepted a weighted algorithm")
	}

	s, err := New(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 0, Dst: 1, Weight: 1}}); err == nil {
		t.Fatal("Ingest accepted a weighted delta edge")
	}
	s.Close()
	if _, err := s.Ingest([]graph.Edge{{Src: 0, Dst: 1}}); err != ErrClosed {
		t.Fatalf("Ingest after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Acquire(); err != ErrClosed {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}
