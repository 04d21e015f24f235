package flashmob

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate("YT", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEndToEndDeepWalk(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 2, RecordPaths: true, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walkers() != 2000 || res.Steps() != 10 || res.TotalSteps() != 20000 {
		t.Fatalf("shape: %d walkers %d steps", res.Walkers(), res.Steps())
	}
	if res.PerStepNS() <= 0 {
		t.Error("PerStepNS not positive")
	}
	paths, err := res.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2000 || len(paths[0]) != 11 {
		t.Fatalf("paths shape: %d × %d", len(paths), len(paths[0]))
	}
	// Paths are walks in ORIGINAL vertex IDs.
	for _, p := range paths[:100] {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == p[i+1] && g.Degree(p[i]) == 0 {
				continue
			}
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path transition %d→%d not an edge in the ORIGINAL graph", p[i], p[i+1])
			}
		}
	}
	tm := res.Timing()
	if tm.Sample <= 0 || tm.Shuffle <= 0 {
		t.Error("timing breakdown missing")
	}
}

func TestDefaultWalkUsesSpecDefaults(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 3, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walkers() != uint64(g.NumVertices()) || res.Steps() != 80 {
		t.Errorf("defaults: %d walkers %d steps", res.Walkers(), res.Steps())
	}
}

func TestPlanSummary(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 4, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Plan()
	if p.NumVPs == 0 || p.NumGroups == 0 || p.Bins == 0 {
		t.Fatalf("empty plan summary: %+v", p)
	}
	if p.PSVertices+p.DSVertices != g.NumVertices() {
		t.Errorf("policy vertex counts %d+%d != |V| %d", p.PSVertices, p.DSVertices, g.NumVertices())
	}

	// An all-PS plan has partitions for the sparse template to
	// direct-sample, and a switch no higher than the |V| walkers the plan
	// is priced for.
	ps, err := New(g, Options{Seed: 4, TargetGroups: 16, Planner: PlannerUniformPS})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	p = ps.Plan()
	if p.SparseDSVPs == 0 || p.SparseDSVPs > p.NumVPs {
		t.Errorf("all-PS plan: %d of %d partitions direct-sampled by the sparse template", p.SparseDSVPs, p.NumVPs)
	}
	if p.SparseSwitch == 0 || p.SparseSwitch > uint64(g.NumVertices()) {
		t.Errorf("all-PS plan: sparse switch %d outside (0, |V| = %d]", p.SparseSwitch, g.NumVertices())
	}
}

func TestVisitCountsOriginalIDs(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 5, RecordPaths: true, EdgeUniformInit: true, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	visits, err := res.VisitCounts()
	if err != nil {
		t.Fatal(err)
	}
	// The highest-degree ORIGINAL vertex should be among the most
	// visited.
	var hub VID
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	var better int
	for v := range visits {
		if visits[v] > visits[hub] {
			better++
		}
	}
	if better > 5 {
		t.Errorf("hub vertex ranked %d-th by visits; remapping broken?", better+1)
	}
	// Table 2 statistics work end to end.
	groups, err := res.DegreeGroupStats(g)
	if err != nil {
		t.Fatal(err)
	}
	var visitSum float64
	for _, grp := range groups {
		visitSum += grp.VisitShare
	}
	if math.Abs(visitSum-1) > 1e-9 {
		t.Errorf("visit shares sum to %v", visitSum)
	}
}

func TestPathsWithoutRecording(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 6, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Paths(); err == nil {
		t.Error("Paths without RecordPaths should error")
	}
	if _, err := res.VisitCounts(); err == nil {
		t.Error("VisitCounts without RecordPaths should error")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("nope", 1, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	bad := &Graph{Offsets: []uint64{0, 5}, Targets: []VID{0}}
	if _, err := New(bad, Options{}); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestBuildGraphAndEdgeList(t *testing.T) {
	g, err := BuildGraph([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("undirected build has %d edges", g.NumEdges())
	}
	g2, err := LoadEdgeList(strings.NewReader("# c\n0 1\n1 2\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Errorf("edge list loaded %d edges", g2.NumEdges())
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := smallGraph(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := SaveFile(bin, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(bin, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Error("binary round trip changed shape")
	}
	// Text fallback.
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("0 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadFile(txt, false)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != 2 {
		t.Errorf("text load: %d edges", g3.NumEdges())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing"), false); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNode2VecEndToEnd(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Algorithm: Node2Vec(1, 2), Seed: 7, RecordPaths: true, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() != 40 {
		t.Errorf("node2vec default steps = %d, want 40", res.Steps())
	}
	paths, err := res.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 500 {
		t.Errorf("%d paths", len(paths))
	}
}

func TestMemoryBudgetEpisodes(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 8, MemoryBudget: 4096, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes() < 2 {
		t.Errorf("episodes = %d, want several under a tiny budget", res.Episodes())
	}
}

func TestSelfAvoidingEndToEnd(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{
		Algorithm:    SelfAvoiding(2, 10, 0.001),
		Seed:         9,
		RecordPaths:  true,
		TargetGroups: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Walk(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Paths()
	if err != nil {
		t.Fatal(err)
	}
	var revisits, moves int
	for _, p := range paths {
		for i := 3; i < len(p); i++ {
			// Skip positions where the walk had no real choice (degree ≤ 2
			// forces revisits); the statistical claim is about the bulk.
			if p[i] == p[i-1] || p[i] == p[i-2] {
				revisits++
			}
			moves++
		}
	}
	if rate := float64(revisits) / float64(moves); rate > 0.05 {
		t.Errorf("window-2 revisit rate %.4f through public API, want < 0.05", rate)
	}
}

func TestPlanDescriptionAndJSON(t *testing.T) {
	g := smallGraph(t)
	sys, err := New(g, Options{Seed: 10, TargetGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	desc := sys.PlanDescription()
	if !strings.Contains(desc, "plan:") || !strings.Contains(desc, "groups") {
		t.Errorf("description missing structure:\n%s", desc)
	}
	var buf strings.Builder
	if err := sys.PlanJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "group_size_log") {
		t.Error("plan JSON missing fields")
	}
}
