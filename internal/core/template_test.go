package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/profile"
)

// psPlanConfig prices the MCKP plan with the cost model's caches scaled
// down with the graph, so on undirectedTestGraph(600, 3) the plan
// pre-samples the hub partitions and direct-samples the tail, and the
// build's sparse switch lands between serving-sized and bulk-sized
// walker counts (181 walkers).
func psPlanConfig() Config {
	return Config{
		Workers: 2, Seed: 19, Planner: PlannerMCKP, Metrics: true,
		Model: profile.NewAnalyticalModel(mem.ScaledGeometry(100)),
		Part:  part.Config{TargetGroups: 2, MinVPSizeLog: 1},
	}
}

// psSteps returns the walker-steps a report attributes to the PS kernels.
func psSteps(t *testing.T, r *obs.Report) uint64 {
	t.Helper()
	v, ok := r.Vector("core_sample_kernel_walker_steps")
	if !ok {
		t.Fatal("kernel vector missing from report")
	}
	return v.Values[kernPS] + v.Values[kernPSWeighted]
}

// TestSparseSwitchBindRule pins which template each driver binds: a solo
// run by its episode size, each mixed cohort and each stepper slot by its
// own walker count — the plan's at or above W*, the sparse one below.
func TestSparseSwitchBindRule(t *testing.T) {
	g := undirectedTestGraph(t, 600, 3)
	e := newEngine(t, g, algo.DeepWalk(), psPlanConfig())
	defer e.Close()
	ws := e.SparseSwitch()
	if ws < 2 || ws >= uint64(g.NumVertices()) {
		t.Fatalf("sparse switch %d: want a count strictly inside (1, |V|)", ws)
	}
	if n := e.SparseDSVPs(); n == 0 {
		t.Fatal("plan has no PS partition for the sparse template to direct-sample")
	}
	for _, walkers := range []uint64{1, ws - 1, ws, 4 * ws} {
		res := seededRun(t, e, 3, walkers, 4)
		if got, want := psSteps(t, res.Report) > 0, walkers >= ws; got != want {
			t.Errorf("RunSeeded(%d walkers): PS kernels ran = %v, want %v (W* = %d)", walkers, got, want, ws)
		}
	}

	// A memory budget makes the episode, not the request, the count.
	cfg := psPlanConfig()
	cfg.MemoryBudget = 12 * (ws - 1)
	small := newEngine(t, g, algo.DeepWalk(), cfg)
	defer small.Close()
	if res := seededRun(t, small, 3, 4*ws, 2); psSteps(t, res.Report) != 0 {
		t.Errorf("episodes of %d walkers ran PS kernels", ws-1)
	}

	// Mixed cohorts choose independently.
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunMixed([]Cohort{
		{Spec: algo.DeepWalk(), Walkers: ws, Steps: 3, Seed: 1},
		{Spec: algo.DeepWalk(), Walkers: ws - 1, Steps: 3, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(s.cohorts[0].kern, func(k vpKernel) bool { return k.kind == kernPS }) {
		t.Error("cohort at W* did not bind the plan template")
	}
	if slices.ContainsFunc(s.cohorts[1].kern, func(k vpKernel) bool { return k.kind == kernPS }) {
		t.Error("cohort below W* bound PS kernels")
	}
	if slices.ContainsFunc(s.cohorts[1].cx.kern, func(k vpKernel) bool { return k.st != nil }) {
		t.Error("sparse cohort context carries PS state")
	}
}

// transitionTally accumulates, per source vertex, observed one-step
// transitions into cells and the exact expected count of each cell. The
// cells of v are its neighbours in adjacency order plus one cell for
// every non-neighbour (reachable only by a PageRank teleport).
type transitionTally struct {
	g        *graph.CSR
	obs, exp [][]float64
	probs    map[uint64][]float64
}

func newTransitionTally(g *graph.CSR) *transitionTally {
	n := g.NumVertices()
	tt := &transitionTally{g: g, obs: make([][]float64, n), exp: make([][]float64, n),
		probs: map[uint64][]float64{}}
	for v := range tt.obs {
		d := g.Degree(graph.VID(v))
		tt.obs[v] = make([]float64, d+1)
		tt.exp[v] = make([]float64, d+1)
	}
	return tt
}

// cellProbs is the exact distribution of a step from v with predecessor
// prev under spec: uniform over the neighbours for a first-order walk,
// node2vec's return/in-out weighting for a second-order one, mixed with
// a uniform teleport of probability StopProb.
func (tt *transitionTally) cellProbs(spec *algo.Spec, prev, v graph.VID) []float64 {
	key := uint64(prev)<<32 | uint64(v)
	if p, ok := tt.probs[key]; ok {
		return p
	}
	g := tt.g
	adj := g.Neighbors(v)
	p := make([]float64, len(adj)+1)
	var sum float64
	for i, x := range adj {
		p[i] = 1
		if spec.Order == 2 {
			p[i] = algo.Node2VecWeight(g, prev, x, spec.P, spec.Q)
		}
		sum += p[i]
	}
	s, n := spec.StopProb, float64(g.NumVertices())
	for i := range adj {
		p[i] = (1-s)*p[i]/sum + s/n
	}
	p[len(adj)] = s * (n - float64(len(adj))) / n
	tt.probs[key] = p
	return p
}

// add records walker transitions cur[j] → next[j] with predecessors
// prev[j]. Dead ends are skipped: the walker stays and nothing is drawn.
func (tt *transitionTally) add(spec *algo.Spec, prev, cur, next []graph.VID) {
	for j, v := range cur {
		adj := tt.g.Neighbors(v)
		if len(adj) == 0 {
			continue
		}
		cell := len(adj)
		if i, ok := slices.BinarySearch(adj, next[j]); ok {
			cell = i
		}
		tt.obs[v][cell]++
		for i, p := range tt.cellProbs(spec, prev[j], v) {
			tt.exp[v][i] += p
		}
	}
}

// chiSquare returns Pearson's statistic and its degrees of freedom over
// every vertex with at least 50 observed transitions, pooling each
// vertex's cells of expected count below 5 into one bucket, and the
// checked vertices.
func (tt *transitionTally) chiSquare() (chi2 float64, df int, checked []graph.VID) {
	for v := range tt.obs {
		var total float64
		for _, o := range tt.obs[v] {
			total += o
		}
		if total < 50 {
			continue
		}
		var poolO, poolE float64
		buckets := 0
		for i, e := range tt.exp[v] {
			o := tt.obs[v][i]
			if e < 5 {
				if e == 0 && o > 0 {
					return math.Inf(1), 0, nil // an impossible transition
				}
				poolO, poolE = poolO+o, poolE+e
				continue
			}
			chi2 += (o - e) * (o - e) / e
			buckets++
		}
		if poolE > 0 {
			chi2 += (poolO - poolE) * (poolO - poolE) / poolE
			buckets++
		}
		df += buckets - 1
		checked = append(checked, graph.VID(v))
	}
	return chi2, df, checked
}

// chiBound is a rejection bound for a chi-square statistic with df
// degrees of freedom, about four standard deviations above its mean.
func chiBound(df int) float64 {
	return float64(df) + 4*math.Sqrt(2*float64(df))
}

// TestTemplatesMatchTransitionDistribution is the distribution check for
// both kernel templates on a plan that pre-samples its hubs. DeepWalk,
// node2vec(0.5, 2) and PageRank(0.85) cohorts walk one mixed run per
// template; every vertex's observed one-step transition frequencies must
// pass a chi-square test against the exact neighbour distribution
// (node2vec's conditioned on each transition's predecessor, PageRank's
// with the teleport share), and each cohort's final positions under the
// two templates must pass a two-sample chi-square, in the style of
// TestDSRegularVsCSRKernels.
func TestTemplatesMatchTransitionDistribution(t *testing.T) {
	g := undirectedTestGraph(t, 600, 3)
	const walkers, steps = 20000, 6
	specs := []algo.Spec{algo.DeepWalk(), algo.Node2Vec(0.5, 2), algo.PageRankWalk(0.85)}

	finals := map[string][][]float64{}
	for _, tc := range []struct {
		name   string
		sparse uint64 // the pinned switch: 0 binds the plan template, MaxUint64 the sparse one
		seed   uint64
	}{{"plan", 0, 101}, {"sparse", math.MaxUint64, 202}} {
		t.Run(tc.name, func(t *testing.T) {
			tallies := make([]*transitionTally, len(specs))
			for k := range tallies {
				tallies[k] = newTransitionTally(g)
			}
			final := make([][]float64, len(specs))
			var prevCur []graph.VID
			cfg := psPlanConfig()
			cfg.StepSink = func(step int, cur, next []graph.VID) {
				// Equal step counts keep the cohorts in request order, each
				// a contiguous segment of the walker array.
				prev := cur
				if step > 0 {
					prev = prevCur
				}
				for k := range specs {
					lo, hi := k*walkers, (k+1)*walkers
					tallies[k].add(&specs[k], prev[lo:hi], cur[lo:hi], next[lo:hi])
					if step == steps-1 {
						final[k] = make([]float64, g.NumVertices())
						for _, v := range next[lo:hi] {
							final[k][v]++
						}
					}
				}
				prevCur = append(prevCur[:0], cur...)
			}
			e := newEngine(t, g, algo.DeepWalk(), cfg)
			defer e.Close()
			cohorts := make([]Cohort, len(specs))
			for k := range specs {
				cohorts[k] = Cohort{Spec: specs[k], Walkers: walkers, Steps: steps, Seed: tc.seed + uint64(k)}
			}
			e.sparseSwitch = tc.sparse
			res := mixedRun(t, e, cohorts)
			if ps := psSteps(t, res.Report); (ps > 0) != (tc.sparse == 0) {
				t.Fatalf("%d PS kernel walker-steps under the %s template", ps, tc.name)
			}
			for k := range specs {
				chi2, df, checked := tallies[k].chiSquare()
				if df < 200 {
					t.Fatalf("%s: only %d degrees of freedom over %d vertices", specs[k].Name, df, len(checked))
				}
				if !slices.ContainsFunc(checked, func(v graph.VID) bool { return e.psVP[e.plan.VPOf(v)] }) {
					t.Fatalf("%s: no PS-partition vertex had enough transitions to check", specs[k].Name)
				}
				if chi2 > chiBound(df) {
					t.Errorf("%s: transition chi-square %.1f exceeds %.1f (df=%d)", specs[k].Name, chi2, chiBound(df), df)
				}
			}
			finals[tc.name] = final
		})
	}
	if t.Failed() {
		return
	}
	// Two-sample chi-square on final positions: final positions of
	// distinct walkers are independent, and the two runs use different
	// seeds.
	for k := range specs {
		a, b := finals["plan"][k], finals["sparse"][k]
		var chi2 float64
		df := -1
		for v := range a {
			if s := a[v] + b[v]; s > 0 {
				d := a[v] - b[v]
				chi2 += d * d / s
				df++
			}
		}
		if chi2 > chiBound(df) {
			t.Errorf("%s: plan vs sparse final-position chi-square %.1f exceeds %.1f (df=%d)", specs[k].Name, chi2, chiBound(df), df)
		}
	}
}
