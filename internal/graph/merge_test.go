package graph

import (
	"testing"

	"flashmob/internal/rng"
)

// randomEdges draws n directed edges over v vertices (self-loops allowed;
// MergeEdges and Build must agree on them either way).
func randomEdges(n int, v uint32, seed uint64) []Edge {
	src := rng.NewXorShift1024Star(seed)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: rng.Uint32n(src, v), Dst: rng.Uint32n(src, v)}
	}
	return edges
}

func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if len(a.Offsets) != len(b.Offsets) {
		t.Fatalf("vertex counts differ: %d vs %d", len(a.Offsets)-1, len(b.Offsets)-1)
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("Offsets[%d]: %d vs %d", i, a.Offsets[i], b.Offsets[i])
		}
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("Targets[%d]: %d vs %d", i, a.Targets[i], b.Targets[i])
		}
	}
}

// TestMergeEdgesEqualsColdBuild: merging a delta into Build(E1) must be
// byte-identical to Build(E1 ∪ E2) with Dedup — the property dynamic-graph
// compaction relies on for its bitwise determinism guarantee.
func TestMergeEdgesEqualsColdBuild(t *testing.T) {
	opts := BuildOptions{Dedup: true}
	for _, tc := range []struct {
		name          string
		baseN, deltaN int
		v             uint32
		seed          uint64
	}{
		{"small", 200, 50, 40, 1},
		{"dense-dups", 2000, 800, 30, 2},
		{"sparse-touch", 5000, 5, 500, 3},
		{"empty-delta", 500, 0, 100, 4},
		{"empty-base", 0, 300, 60, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e1 := randomEdges(tc.baseN, tc.v, tc.seed)
			e2 := randomEdges(tc.deltaN, tc.v, tc.seed+100)
			baseRes, err := Build(e1, opts)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := MergeEdges(baseRes.Graph, e2)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Build(append(append([]Edge{}, e1...), e2...), opts)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, merged, cold.Graph)
			if err := merged.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergeEdgesGrowsVertexSpace: delta endpoints beyond the base |V|
// extend the graph, exactly as a cold Build of the union would.
func TestMergeEdgesGrowsVertexSpace(t *testing.T) {
	opts := BuildOptions{Dedup: true}
	e1 := randomEdges(300, 50, 7)
	e2 := []Edge{{Src: 70, Dst: 3}, {Src: 2, Dst: 65}, {Src: 70, Dst: 3}}
	baseRes, err := Build(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeEdges(baseRes.Graph, e2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumVertices() != 71 {
		t.Fatalf("merged |V| = %d, want 71", merged.NumVertices())
	}
	cold, err := Build(append(append([]Edge{}, e1...), e2...), opts)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, merged, cold.Graph)
}

// TestMergeEdgesRejectsWeighted: weighted merges cannot promise bitwise
// equality with a cold Build (float weight-sum order under the unstable
// sort), so they are refused outright.
func TestMergeEdgesRejectsWeighted(t *testing.T) {
	res, err := Build([]Edge{{Src: 0, Dst: 1, Weight: 2}}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeEdges(res.Graph, []Edge{{Src: 1, Dst: 0}}); err == nil {
		t.Fatal("MergeEdges accepted a weighted base graph")
	}
}

// TestMergeEdgesAllocs is the merge-path alloc regression test: merging a
// small delta into a large base must allocate only the output arrays plus
// the sorted delta copy — not the per-vertex sort machinery Build pays
// (one closure per vertex). A budget of a dozen allocations holds
// regardless of base size; Build of the same union costs tens of
// thousands.
func TestMergeEdgesAllocs(t *testing.T) {
	base, err := Build(randomEdges(200000, 20000, 11), BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	delta := randomEdges(64, 20000, 12)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MergeEdges(base.Graph, delta); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("MergeEdges allocated %.0f times; want <= 12 (untouched adjacency must block-copy)", allocs)
	}
}
