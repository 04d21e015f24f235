package graph

import (
	"bytes"
	"testing"
	"testing/quick"

	"flashmob/internal/rng"
)

// diamond returns a small directed test graph:
//
//	0 → 1,2,3   1 → 0,2   2 → 0   3 → (none kept? no: 3 → 0)
func diamondEdges() []Edge {
	return []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 0}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 0},
		{Src: 3, Dst: 0},
	}
}

func mustBuild(t *testing.T, edges []Edge, opt BuildOptions) *CSR {
	t.Helper()
	res, err := Build(edges, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return res.Graph
}

func TestBuildBasic(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	if d := g.Degree(0); d != 3 {
		t.Errorf("Degree(0) = %d, want 3", d)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
}

func TestBuildUndirected(t *testing.T) {
	g := mustBuild(t, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, BuildOptions{Undirected: true})
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Error("reverse edges missing")
	}
}

func TestBuildSelfLoopRemoval(t *testing.T) {
	g := mustBuild(t, []Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
		BuildOptions{RemoveSelfLoops: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after self-loop removal", g.NumEdges())
	}
	if g.HasEdge(0, 0) {
		t.Error("self loop survived")
	}
}

func TestBuildDedup(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 2}, {Src: 0, Dst: 2, Weight: 3},
	}
	res, err := Build(edges, BuildOptions{Dedup: true, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	w := g.EdgeWeights(0)
	if w[0] != 3 { // merged weights 1+2
		t.Errorf("merged weight = %v, want 3", w[0])
	}
}

func TestBuildDropZeroDegree(t *testing.T) {
	// Vertex 5 is isolated (appears neither as source nor target) given
	// NumVertices=6; vertices 0..3 participate.
	res, err := Build(diamondEdges(), BuildOptions{NumVertices: 6, DropZeroDegree: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4 after drop", res.Graph.NumVertices())
	}
	if res.Remap == nil {
		t.Fatal("expected non-nil remap")
	}
	if res.Remap[4] != NoVertex || res.Remap[5] != NoVertex {
		t.Errorf("isolated vertices not marked removed: %v", res.Remap)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Errorf("dropped graph invalid: %v", err)
	}
}

func TestBuildKeepsZeroOutDegreeTargets(t *testing.T) {
	// Vertex 2 has no out-edges but is a target; it must be kept so no
	// adjacency list dangles.
	res, err := Build([]Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 0}},
		BuildOptions{NumVertices: 4, DropZeroDegree: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", res.Graph.NumVertices())
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	_, err := Build([]Edge{{Src: 0, Dst: 9}}, BuildOptions{NumVertices: 4})
	if err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

func TestHasEdge(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	cases := []struct {
		u, w VID
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, true}, {0, 0, false},
		{1, 0, true}, {1, 2, true}, {1, 3, false},
		{2, 0, true}, {2, 1, false},
		{3, 0, true}, {3, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.w); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.w, got, c.want)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	bad := &CSR{Offsets: append([]uint64{}, g.Offsets...), Targets: append([]VID{}, g.Targets...)}
	bad.Targets[0] = 1000
	if bad.Validate() == nil {
		t.Error("out-of-range target not caught")
	}
	bad2 := &CSR{Offsets: []uint64{0, 5, 2}, Targets: make([]VID, 2)}
	if bad2.Validate() == nil {
		t.Error("non-monotone offsets not caught")
	}
	bad3 := &CSR{Offsets: []uint64{1, 2}, Targets: make([]VID, 1)}
	if bad3.Validate() == nil {
		t.Error("nonzero first offset not caught")
	}
}

func TestSortByDegreeDesc(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	r := SortByDegreeDesc(g)
	if !IsDegreeSorted(r.Graph) {
		t.Fatal("graph not degree sorted")
	}
	if r.Graph.Degree(0) != 3 {
		t.Errorf("new VID 0 degree = %d, want 3 (old vertex 0)", r.Graph.Degree(0))
	}
	// Maps must be inverses.
	for old, nw := range r.OldToNew {
		if r.NewToOld[nw] != VID(old) {
			t.Fatalf("OldToNew/NewToOld not inverse at %d", old)
		}
	}
	// Edge structure preserved: u→w iff new(u)→new(w).
	for u := uint32(0); u < g.NumVertices(); u++ {
		for w := uint32(0); w < g.NumVertices(); w++ {
			if g.HasEdge(u, w) != r.Graph.HasEdge(r.OldToNew[u], r.OldToNew[w]) {
				t.Fatalf("edge (%d,%d) not preserved under relabeling", u, w)
			}
		}
	}
}

func TestSortByDegreeDescStable(t *testing.T) {
	// Ties keep original order: vertices 1..4 all have degree 1.
	edges := []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2},
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 4, Dst: 0},
	}
	g := mustBuild(t, edges, BuildOptions{})
	r := SortByDegreeDesc(g)
	want := []VID{0, 1, 2, 3, 4}
	for i, w := range want {
		if r.NewToOld[i] != w {
			t.Fatalf("NewToOld = %v, want %v (stable ties)", r.NewToOld, want)
		}
	}
}

func TestSortByDegreeDescRandomGraph(t *testing.T) {
	src := rng.NewXorShift64Star(17)
	var edges []Edge
	const n = 500
	for i := 0; i < 3000; i++ {
		edges = append(edges, Edge{
			Src: VID(rng.Uint32n(src, n)),
			Dst: VID(rng.Uint32n(src, n)),
		})
	}
	g := mustBuild(t, edges, BuildOptions{NumVertices: n})
	r := SortByDegreeDesc(g)
	if !IsDegreeSorted(r.Graph) {
		t.Fatal("random graph not degree sorted after reorder")
	}
	if r.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", r.Graph.NumEdges(), g.NumEdges())
	}
	if err := r.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total degree distribution preserved as a multiset.
	oldDeg := g.DegreeSlice()
	newDeg := r.Graph.DegreeSlice()
	hist := map[uint32]int{}
	for _, d := range oldDeg {
		hist[d]++
	}
	for _, d := range newDeg {
		hist[d]--
	}
	for d, c := range hist {
		if c != 0 {
			t.Fatalf("degree %d multiset mismatch (%+d)", d, c)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range g.Targets {
		if g.Targets[i] != g2.Targets[i] {
			t.Fatalf("targets differ at %d", i)
		}
	}
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	res, err := Build([]Edge{{0, 1, 2.5}, {1, 0, 0.5}}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, res.Graph); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weights == nil || g2.Weights[0] != 2.5 {
		t.Fatalf("weights lost: %v", g2.Weights)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all........"))); err == nil {
		t.Fatal("expected error on garbage input")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	edges, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2 := mustBuild(t, edges, BuildOptions{})
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("edge-list round trip changed graph shape")
	}
}

func TestEdgeListComments(t *testing.T) {
	in := "# comment\n% also comment\n\n0 1\n1 0 3.5\n"
	edges, err := ReadEdgeList(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2", len(edges))
	}
	if edges[1].Weight != 3.5 {
		t.Errorf("weight = %v, want 3.5", edges[1].Weight)
	}
}

func TestEdgeListBadInput(t *testing.T) {
	// The last two name an ID space past both sparseIDFloor and
	// maxIDsPerEdge IDs for their one edge.
	for _, in := range []string{"0\n", "a b\n", "0 x\n", "0 1 zz\n", "2942967295 0\n", "0 1048576\n"} {
		if _, err := ReadEdgeList(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	g := mustBuild(t, diamondEdges(), BuildOptions{})
	want := uint64(5*8 + 7*4)
	if got := g.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

func TestRelabelPropertyPreservesEdges(t *testing.T) {
	// Property: relabeling by a random permutation preserves the edge
	// relation.
	f := func(seed uint64) bool {
		src := rng.NewXorShift64Star(seed)
		const n = 60
		var edges []Edge
		for i := 0; i < 200; i++ {
			edges = append(edges, Edge{Src: VID(rng.Uint32n(src, n)), Dst: VID(rng.Uint32n(src, n))})
		}
		res, err := Build(edges, BuildOptions{NumVertices: n, Dedup: true})
		if err != nil {
			return false
		}
		g := res.Graph
		perm := make([]uint32, n)
		rng.Perm(src, perm)
		inv := make([]uint32, n)
		for i, p := range perm {
			inv[p] = uint32(i)
		}
		rg := Relabel(g, perm, inv)
		for u := uint32(0); u < n; u++ {
			for _, w := range g.Neighbors(u) {
				if !rg.HasEdge(perm[u], perm[w]) {
					return false
				}
			}
		}
		return rg.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
