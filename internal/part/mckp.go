package part

import (
	"fmt"
	"math"
	"slices"

	"flashmob/internal/graph"
	"flashmob/internal/profile"
)

// Config parameterizes the planners.
type Config struct {
	// TargetGroups is the MCKP class-count hyper-parameter G (paper: 64
	// to 128). Default 128.
	TargetGroups int
	// MaxBins is the MCKP weight limit P: the number of outer-shuffle
	// bins that keeps one shuffle task inside the L2 cache (paper: 2048
	// on their platform). Default 2048.
	MaxBins int
	// MinVPSizeLog bounds how small a VP may get (log2 vertices).
	// Default 6 (64 vertices).
	MinVPSizeLog uint
	// MaxSplitLog bounds how many VPs one group may be cut into (log2).
	// Default 11 (2048), matching the one-group-fills-the-budget extreme.
	MaxSplitLog uint
	// Walkers is the number of walkers the engine will run per episode;
	// with |E| edges it determines the walker density.
	Walkers uint64
	// Model prices candidate partitions.
	Model profile.CostModel
}

func (c Config) withDefaults() Config {
	if c.TargetGroups <= 0 {
		c.TargetGroups = 128
	}
	if c.MaxBins <= 0 {
		c.MaxBins = 2048
	}
	if c.MinVPSizeLog == 0 {
		c.MinVPSizeLog = 6
	}
	if c.MaxSplitLog == 0 {
		c.MaxSplitLog = 11
	}
	return c
}

// item is one MCKP candidate for a group: a VP size plus whether the group
// shuffles internally.
type item struct {
	vpSizeLog uint
	extra     bool
	weight    int
	costNS    float64
	policies  []profile.Policy
}

// PlanMCKP runs the paper's full auto-configuration: group the
// degree-sorted vertices, enumerate per-group (VP size × policy)
// candidates priced by the cost model, and solve the MCKP exactly with
// dynamic programming. The graph must be degree-sorted (descending).
func PlanMCKP(g *graph.CSR, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		return nil, fmt.Errorf("part: config needs a cost model")
	}
	if !graph.IsDegreeSorted(g) {
		return nil, fmt.Errorf("part: graph must be sorted by descending degree")
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("part: empty graph")
	}
	if cfg.Walkers == 0 {
		cfg.Walkers = uint64(n)
	}
	density := float64(cfg.Walkers) / float64(g.NumEdges())

	groupLog := GroupSizeLogFor(n, cfg.TargetGroups)
	groupSize := uint32(1) << groupLog
	numGroups := int((uint64(n) + uint64(groupSize) - 1) >> groupLog)

	// Enumerate candidate items per group.
	items := make([][]item, numGroups)
	for gi := 0; gi < numGroups; gi++ {
		start := graph.VID(gi) << groupLog
		end := start + groupSize
		if end > n {
			end = n
		}
		lo := int(groupLog) - int(cfg.MaxSplitLog)
		if lo < int(cfg.MinVPSizeLog) {
			lo = int(cfg.MinVPSizeLog)
		}
		if lo > int(groupLog) {
			lo = int(groupLog)
		}
		for szLog := uint(lo); szLog <= groupLog; szLog++ {
			cost, weight, policies := priceGroup(g, start, end, szLog, density, cfg.Model)
			items[gi] = append(items[gi],
				item{vpSizeLog: szLog, weight: weight, costNS: cost, policies: policies})
			if weight > 1 {
				// The internal-shuffle variant: weight collapses to one
				// bin, cost gains one shuffle level over the group's
				// walkers (§4.4).
				walkers := float64(edgesIn(g, start, end)) * density
				items[gi] = append(items[gi], item{
					vpSizeLog: szLog, extra: true, weight: 1,
					costNS:   cost + walkers*cfg.Model.ShuffleStepNS(),
					policies: policies,
				})
			}
		}
	}

	choice, err := solveMCKP(items, cfg.MaxBins)
	if err != nil {
		return nil, err
	}

	plan := &Plan{V: n, GroupSizeLog: groupLog}
	for gi := 0; gi < numGroups; gi++ {
		it := items[gi][choice[gi]]
		start := graph.VID(gi) << groupLog
		end := start + groupSize
		if end > n {
			end = n
		}
		plan.Groups = append(plan.Groups, GroupPlan{
			Start: start, End: end,
			VPSizeLog:    it.vpSizeLog,
			ExtraShuffle: it.extra,
			Policies:     it.policies,
		})
	}
	plan.finalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// edgesIn returns the edge count of the vertex range [start, end), straight
// from the CSR offset prefix sums.
func edgesIn(g *graph.CSR, start, end graph.VID) uint64 {
	return g.Offsets[end] - g.Offsets[start]
}

// priceGroup costs one candidate VP size for a group: each VP gets the
// cheaper of PS and DS (the paper's per-item profit), weighted by the
// walker-steps the VP will serve per iteration (proportional to its edges,
// per the Table 2 visit/edge correlation).
func priceGroup(g *graph.CSR, start, end graph.VID, szLog uint, density float64, model profile.CostModel) (costNS float64, weight int, policies []profile.Policy) {
	vpSize := uint32(1) << szLog
	for s := start; s < end; s += vpSize {
		e := s + vpSize
		if e > end {
			e = end
		}
		edges := edgesIn(g, s, e)
		verts := uint64(e - s)
		avgDeg := float64(edges) / float64(verts)
		shape := profile.VPShape{Vertices: verts, AvgDegree: avgDeg, Density: density}
		ps := model.SampleStepNS(profile.PS, shape)
		ds := model.SampleStepNS(profile.DS, shape)
		walkers := float64(edges) * density
		if ps < ds {
			costNS += walkers * ps
			policies = append(policies, profile.PS)
		} else {
			costNS += walkers * ds
			policies = append(policies, profile.DS)
		}
		weight++
	}
	return costNS, weight, policies
}

// solveMCKP minimizes total cost choosing exactly one item per class with
// total weight ≤ maxWeight, using the classic pseudo-polynomial DP
// (O(C·P·I) time, O(C·P) space; Dudziński & Walukiewicz 1987, Kellerer et
// al. 2004). It returns the chosen item index per class.
func solveMCKP(items [][]item, maxWeight int) ([]int, error) {
	numClasses := len(items)
	width := maxWeight + 1
	const inf = math.MaxFloat64
	prev := make([]float64, width)
	next := make([]float64, width)
	// choiceAt[c*width + w] is the item chosen for class c to reach
	// weight w.
	choiceAt := make([]int16, numClasses*width)
	for i := range choiceAt {
		choiceAt[i] = -1
	}
	for w := 1; w < width; w++ {
		prev[w] = inf
	}
	for c := 0; c < numClasses; c++ {
		for w := 0; w < width; w++ {
			next[w] = inf
		}
		for w := 0; w < width; w++ {
			if prev[w] == inf {
				continue
			}
			for idx, it := range items[c] {
				nw := w + it.weight
				if nw >= width {
					continue
				}
				if cand := prev[w] + it.costNS; cand < next[nw] {
					next[nw] = cand
					choiceAt[c*width+nw] = int16(idx)
				}
			}
		}
		prev, next = next, prev
	}
	// Find the best final weight.
	bestW, bestCost := -1, inf
	for w := 0; w < width; w++ {
		if prev[w] < bestCost {
			bestCost = prev[w]
			bestW = w
		}
	}
	if bestW < 0 {
		return nil, fmt.Errorf("part: MCKP infeasible with weight limit %d for %d classes",
			maxWeight, numClasses)
	}
	// Backtrack.
	choice := make([]int, numClasses)
	w := bestW
	for c := numClasses - 1; c >= 0; c-- {
		idx := choiceAt[c*width+w]
		if idx < 0 {
			return nil, fmt.Errorf("part: MCKP backtrack failed at class %d weight %d", c, w)
		}
		choice[c] = int(idx)
		w -= items[c][idx].weight
	}
	return choice, nil
}

// EvaluateNS estimates a plan's per-iteration sample and shuffle costs
// under a cost model, for comparing planners (the paper's Figure 9).
// Returned values are total nanoseconds per iteration.
func EvaluateNS(p *Plan, g *graph.CSR, walkers uint64, model profile.CostModel) (sampleNS, shuffleNS float64) {
	density := float64(walkers) / float64(g.NumEdges())
	for _, vp := range p.VPs {
		steps, shape := vpLoad(g, vp, density)
		sampleNS += steps * model.SampleStepNS(vp.Policy, shape)
	}
	// One outer level over all walkers, plus one inner level per
	// extra-shuffle group's walkers.
	shuffleNS = float64(walkers) * model.ShuffleStepNS()
	for _, gp := range p.Groups {
		if gp.ExtraShuffle {
			w := float64(edgesIn(g, gp.Start, gp.End)) * density
			shuffleNS += w * model.ShuffleStepNS()
		}
	}
	return sampleNS, shuffleNS
}

// vpLoad returns the walker-steps partition vp serves per iteration at a
// global walker density (proportional to its edges, per the Table 2
// visit/edge correlation) and its shape for the cost model.
func vpLoad(g *graph.CSR, vp VP, density float64) (steps float64, shape profile.VPShape) {
	edges := edgesIn(g, vp.Start, vp.End)
	verts := uint64(vp.End - vp.Start)
	return float64(edges) * density, profile.VPShape{
		Vertices:  verts,
		AvgDegree: float64(edges) / float64(verts),
		Density:   density,
	}
}

// SparseSwitch returns the walker count W* from which a cohort should
// sample the plan's PS partitions with PS rather than DS: the smallest w
// at which those partitions, priced by the model at density w/|E| and
// summed the way EvaluateNS sums, cost no more under PS than under DS.
// It is capped at planned, the walker count the plan was priced for: at
// that density the plan's own choice stands. A plan without PS
// partitions returns 0. The search doubles w until PS wins, then
// bisects the last doubling, so it prices O(log planned) densities.
func SparseSwitch(p *Plan, g *graph.CSR, planned uint64, model profile.CostModel) uint64 {
	if !slices.ContainsFunc(p.VPs, func(vp VP) bool { return vp.Policy == profile.PS && vp.End > vp.Start }) {
		return 0
	}
	planned = max(planned, 1)
	psWins := func(w uint64) bool {
		psNS, dsNS := psDSCost(p, g, w, model)
		return psNS <= dsNS
	}
	// After the doubling, PS loses at lo (or lo is 0) and wins at hi (or
	// hi is the cap): bisect (lo, hi].
	lo, hi := uint64(0), planned
	for w := uint64(1); w < planned; w *= 2 {
		if psWins(w) {
			hi = w
			break
		}
		lo = w
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if psWins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// psDSCost prices the plan's non-empty PS partitions at a walker count,
// as pre-sampled and as direct-sampled: the two sums SparseSwitch
// compares.
func psDSCost(p *Plan, g *graph.CSR, walkers uint64, model profile.CostModel) (ps, ds float64) {
	density := float64(walkers) / float64(g.NumEdges())
	for _, vp := range p.VPs {
		if vp.Policy != profile.PS || vp.End == vp.Start {
			continue
		}
		steps, shape := vpLoad(g, vp, density)
		ps += steps * model.SampleStepNS(profile.PS, shape)
		ds += steps * model.SampleStepNS(profile.DS, shape)
	}
	return ps, ds
}
