package part

import (
	"math"
	"testing"

	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/profile"
)

func testModel() profile.CostModel {
	return profile.NewAnalyticalModel(mem.PaperGeometry())
}

func testGraph(t *testing.T, n uint32, avgDeg float64) *graph.CSR {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: n, AvgDegree: avgDeg, Alpha: 0.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroupSizeLogFor(t *testing.T) {
	cases := []struct {
		n      uint32
		target int
	}{
		{100, 128}, {128, 128}, {129, 128}, {1 << 20, 128}, {1_000_003, 128}, {5, 4},
	}
	for _, c := range cases {
		log := GroupSizeLogFor(c.n, c.target)
		groups := (uint64(c.n) + (1 << log) - 1) >> log
		if groups > uint64(c.target) {
			t.Errorf("n=%d: %d groups exceeds target %d", c.n, groups, c.target)
		}
		if log > 0 {
			prev := (uint64(c.n) + (1 << (log - 1)) - 1) >> (log - 1)
			if prev <= uint64(c.target) {
				t.Errorf("n=%d: size log %d not minimal", c.n, log)
			}
		}
	}
}

func TestPlanMCKPValidAndWithinBudget(t *testing.T) {
	g := testGraph(t, 50000, 8)
	cfg := Config{Walkers: 50000, Model: testModel()}
	plan, err := PlanMCKP(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Weight() > 2048 {
		t.Errorf("plan weight %d exceeds default budget", plan.Weight())
	}
	if plan.NumVPs() == 0 {
		t.Fatal("no VPs")
	}
}

func TestPlanMCKPBeatsUniform(t *testing.T) {
	// Figure 9b: the DP plan must not lose to either uniform planner or
	// the manual heuristic under the model that priced it.
	g := testGraph(t, 60000, 10)
	model := testModel()
	cfg := Config{Walkers: 60000, Model: model}
	dp, err := PlanMCKP(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dpS, dpSh := EvaluateNS(dp, g, cfg.Walkers, model)
	dpTotal := dpS + dpSh

	for _, pol := range []profile.Policy{profile.PS, profile.DS} {
		u, err := PlanUniform(g, cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		s, sh := EvaluateNS(u, g, cfg.Walkers, model)
		if dpTotal > (s+sh)*1.001 {
			t.Errorf("DP plan (%.0f ns) worse than Uniform-%v (%.0f ns)", dpTotal, pol, s+sh)
		}
	}
	m, err := ManualHeuristic{}.PlanManual(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, sh := EvaluateNS(m, g, cfg.Walkers, model)
	if dpTotal > (s+sh)*1.001 {
		t.Errorf("DP plan (%.0f ns) worse than Manual (%.0f ns)", dpTotal, s+sh)
	}
}

func TestPlanMCKPShape(t *testing.T) {
	// Figure 10 shape: the highest-degree vertices should get PS and the
	// low-degree tail DS; head VPs should not be larger than tail VPs.
	g := testGraph(t, 80000, 12)
	plan, err := PlanMCKP(g, Config{Walkers: 80000, Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	headVP := plan.VPs[0]
	tailVP := plan.VPs[len(plan.VPs)-1]
	if headVP.Policy != profile.PS {
		t.Errorf("highest-degree VP policy = %v, want PS", headVP.Policy)
	}
	if tailVP.Policy != profile.DS {
		t.Errorf("lowest-degree VP policy = %v, want DS", tailVP.Policy)
	}
	if plan.Groups[0].VPSizeLog > plan.Groups[len(plan.Groups)-1].VPSizeLog {
		t.Errorf("head group VPs (%d) larger than tail group VPs (%d)",
			plan.Groups[0].VPSizeLog, plan.Groups[len(plan.Groups)-1].VPSizeLog)
	}
}

func TestPlanMCKPErrors(t *testing.T) {
	g := testGraph(t, 1000, 4)
	if _, err := PlanMCKP(g, Config{}); err == nil {
		t.Error("missing model accepted")
	}
	// Unsorted graph: reverse-relabel so low-degree vertices come first.
	n := g.NumVertices()
	fwd := make([]graph.VID, n)
	bwd := make([]graph.VID, n)
	for i := uint32(0); i < n; i++ {
		fwd[i] = n - 1 - i
		bwd[n-1-i] = i
	}
	rev := graph.Relabel(g, fwd, bwd)
	if _, err := PlanMCKP(rev, Config{Model: testModel()}); err == nil {
		t.Error("unsorted graph accepted")
	}
}

func TestSolveMCKPMatchesBruteForce(t *testing.T) {
	items := [][]item{
		{{weight: 1, costNS: 10}, {weight: 3, costNS: 2}},
		{{weight: 2, costNS: 8}, {weight: 1, costNS: 9}, {weight: 4, costNS: 1}},
		{{weight: 1, costNS: 5}, {weight: 2, costNS: 3}},
	}
	const maxW = 6
	choice, err := solveMCKP(items, maxW)
	if err != nil {
		t.Fatal(err)
	}
	var gotCost float64
	gotW := 0
	for c, idx := range choice {
		gotCost += items[c][idx].costNS
		gotW += items[c][idx].weight
	}
	if gotW > maxW {
		t.Fatalf("solution weight %d exceeds %d", gotW, maxW)
	}
	// Brute force.
	best := math.MaxFloat64
	for a := range items[0] {
		for b := range items[1] {
			for c := range items[2] {
				w := items[0][a].weight + items[1][b].weight + items[2][c].weight
				if w > maxW {
					continue
				}
				cost := items[0][a].costNS + items[1][b].costNS + items[2][c].costNS
				if cost < best {
					best = cost
				}
			}
		}
	}
	if math.Abs(gotCost-best) > 1e-9 {
		t.Fatalf("DP cost %.1f, brute force %.1f", gotCost, best)
	}
}

func TestSolveMCKPInfeasible(t *testing.T) {
	items := [][]item{{{weight: 5, costNS: 1}}}
	if _, err := solveMCKP(items, 3); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestSolveMCKPTightBudgetPrefersExtraShuffle(t *testing.T) {
	// Two classes; budget forces at least one class to pick the weight-1
	// (extra shuffle) variant even though it costs more.
	items := [][]item{
		{{weight: 4, costNS: 1}, {weight: 1, costNS: 3, extra: true}},
		{{weight: 4, costNS: 1}, {weight: 1, costNS: 3, extra: true}},
	}
	choice, err := solveMCKP(items, 5)
	if err != nil {
		t.Fatal(err)
	}
	extras := 0
	for c, idx := range choice {
		if items[c][idx].extra {
			extras++
		}
	}
	if extras != 1 {
		t.Fatalf("chose %d extra-shuffle items, want exactly 1", extras)
	}
}

func TestPlanUniform(t *testing.T) {
	g := testGraph(t, 10000, 4)
	plan, err := PlanUniform(g, Config{MaxBins: 64}, profile.DS)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumVPs() > 64 {
		t.Errorf("NumVPs = %d, want ≤ 64", plan.NumVPs())
	}
	for _, vp := range plan.VPs {
		if vp.Policy != profile.DS {
			t.Fatal("uniform plan policy mismatch")
		}
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanManualRespectsBinBudget(t *testing.T) {
	g := testGraph(t, 50000, 8)
	cfg := Config{Walkers: 50000, MaxBins: 32, TargetGroups: 16, Model: testModel()}
	plan, err := ManualHeuristic{}.PlanManual(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Weight() > 32 {
		t.Errorf("weight %d exceeds budget 32", plan.Weight())
	}
	// Some group must have needed the internal shuffle.
	var extras int
	for _, gp := range plan.Groups {
		if gp.ExtraShuffle {
			extras++
		}
	}
	if plan.NumVPs() > 32 && extras == 0 {
		t.Error("budget enforced without extra shuffles?")
	}
}

func TestVPOfAndBinOfWithExtraShuffle(t *testing.T) {
	plan := &Plan{
		V:            64,
		GroupSizeLog: 5, // two groups of 32
		Groups: []GroupPlan{
			{Start: 0, End: 32, VPSizeLog: 3,
				Policies: make([]profile.Policy, 4), ExtraShuffle: true},
			{Start: 32, End: 64, VPSizeLog: 4,
				Policies: []profile.Policy{profile.DS, profile.DS}},
		},
	}
	plan.Groups[0].Policies = []profile.Policy{profile.PS, profile.PS, profile.PS, profile.PS}
	plan.finalize()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Group 0 is one bin (extra); group 1 contributes two bins.
	if got := plan.Weight(); got != 3 {
		t.Fatalf("weight = %d, want 3", got)
	}
	if plan.BinOf(0) != 0 || plan.BinOf(31) != 0 {
		t.Error("extra group vertices must map to one bin")
	}
	if plan.BinOf(32) != 1 || plan.BinOf(63) != 2 {
		t.Errorf("group 1 bins wrong: BinOf(32)=%d BinOf(63)=%d", plan.BinOf(32), plan.BinOf(63))
	}
	if plan.VPOf(9) != 1 {
		t.Errorf("VPOf(9) = %d, want 1", plan.VPOf(9))
	}
	if plan.VPOf(63) != 5 {
		t.Errorf("VPOf(63) = %d, want 5", plan.VPOf(63))
	}
	bins := plan.Bins()
	if !bins[0].Extra || bins[0].NumVPs != 4 {
		t.Errorf("bin 0 = %+v, want extra with 4 VPs", bins[0])
	}
}

func TestPlanPartialLastGroup(t *testing.T) {
	// 100 vertices with group size 32: last group has 4 vertices.
	g := testGraph(t, 100, 3)
	plan, err := PlanMCKP(g, Config{TargetGroups: 4, Walkers: 100, Model: testModel(), MinVPSizeLog: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	last := plan.Groups[len(plan.Groups)-1]
	if last.End != 100 {
		t.Errorf("last group ends at %d, want 100", last.End)
	}
}

func TestEvaluateNSPositive(t *testing.T) {
	g := testGraph(t, 5000, 6)
	model := testModel()
	plan, err := PlanMCKP(g, Config{Walkers: 5000, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	s, sh := EvaluateNS(plan, g, 5000, model)
	if s <= 0 || sh <= 0 {
		t.Fatalf("EvaluateNS = (%v, %v), want positive", s, sh)
	}
}

// TestSparseSwitch pins W*'s definition: on an MCKP plan that
// pre-samples its hubs, the PS partitions cost no more under PS than
// under DS at W* walkers and more one walker below; a plan without PS
// partitions has no switch; and a plan whose PS never pays is capped at
// the walker count it was priced for.
func TestSparseSwitch(t *testing.T) {
	g := testGraph(t, 50000, 8)
	model := testModel()
	const planned = 50000
	plan, err := PlanMCKP(g, Config{Walkers: planned, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	ws := SparseSwitch(plan, g, planned, model)
	if ws <= 1 || ws >= planned {
		t.Fatalf("W* = %d, want inside (1, %d)", ws, planned)
	}
	if ps, ds := psDSCost(plan, g, ws, model); ps > ds {
		t.Errorf("at W* = %d: PS %.0f ns > DS %.0f ns", ws, ps, ds)
	}
	if ps, ds := psDSCost(plan, g, ws-1, model); ps <= ds {
		t.Errorf("below W* = %d: PS %.0f ns <= DS %.0f ns", ws, ps, ds)
	}

	allDS, err := PlanUniform(g, Config{Walkers: planned, Model: model}, profile.DS)
	if err != nil {
		t.Fatal(err)
	}
	if got := SparseSwitch(allDS, g, planned, model); got != 0 {
		t.Errorf("all-DS plan: W* = %d, want 0", got)
	}
	allPS, err := PlanUniform(g, Config{Walkers: planned, Model: model}, profile.PS)
	if err != nil {
		t.Fatal(err)
	}
	if ps, ds := psDSCost(allPS, g, planned, model); ps <= ds {
		t.Fatalf("all-PS plan pays at %d walkers (PS %.0f ns <= DS %.0f ns)", planned, ps, ds)
	}
	if got := SparseSwitch(allPS, g, planned, model); got != planned {
		t.Errorf("all-PS plan that PS does not pay for: W* = %d, want the cap %d", got, planned)
	}
}
