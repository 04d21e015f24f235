package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// Cohort describes one walker population of a mixed run: its own walk
// spec, walker count, step count, and seed. Cohorts of one RunMixed share
// the engine's partition sweep, shuffle, and write-combined bin staging,
// but sample through per-cohort kernel bindings and private PS buffers,
// so each cohort's trajectories are a pure function of (engine build,
// cohort spec, cohort seed, walkers, steps) — bitwise-identical to the
// same cohort running alone via RunSeeded, whatever its co-batched
// neighbors do.
type Cohort struct {
	// Spec is the cohort's walk. Any spec the engine build supports is
	// allowed: weighted specs additionally require the engine itself to
	// have been built with a weighted primary spec (the alias tables are
	// a build-time artifact).
	Spec algo.Spec
	// Walkers is the cohort's walker count (0 means |V|).
	Walkers uint64
	// Steps is the cohort's walk length (0 means Spec.Steps). Cohorts
	// with fewer steps retire early: the sweep shrinks to the still-active
	// walker prefix instead of padding everyone to the longest walk.
	Steps int
	// Seed drives the cohort's walker placement and every sample draw,
	// exactly as RunSeeded's seed does for a solo run.
	Seed uint64
}

// CohortResult reports one cohort's slice of a mixed run.
type CohortResult struct {
	// Walkers is the cohort's walker count.
	Walkers uint64
	// Steps is the cohort's resolved walk length.
	Steps int
	// TotalSteps is Walkers × Steps.
	TotalSteps uint64
	// History holds the cohort's recorded W_i arrays when
	// Config.RecordHistory is set (each cohort records into its own
	// history — cohorts retire at different steps, so one shared history
	// would be ragged).
	History *walk.History
}

// MixedResult reports a completed mixed run: per-cohort outcomes in the
// caller's cohort order plus the run-level aggregates and stage timings.
type MixedResult struct {
	// Cohorts holds one result per requested cohort, in request order.
	Cohorts []CohortResult
	// Walkers is the total walker count across cohorts.
	Walkers uint64
	// TotalSteps is the sum of the cohorts' walker-steps.
	TotalSteps uint64
	// StageTimes is the run's wall time split by pipeline stage.
	StageTimes
	// VPSteps[i] counts walker-steps sampled in partition i across all
	// cohorts.
	VPSteps []uint64
	// Report is the observability snapshot of the session that executed
	// the run (nil unless Config.Metrics).
	Report *obs.Report
}

// PerStepNS returns average wall nanoseconds per walker-step across the
// whole mixed run.
func (r *MixedResult) PerStepNS() float64 {
	if r.TotalSteps == 0 {
		return 0
	}
	return float64(r.Duration.Nanoseconds()) / float64(r.TotalSteps)
}

// cohortState is one sampling slot's pooled per-run state: a private
// psState set (PS buffer consumption is mutable, so co-batched cohorts
// cannot share one) and a kernel table rebound to it per run. Sessions
// keep these across runs — the PS buffers are the dominant allocation,
// which is why a slot allocates them only on its first plan-template
// bind: a slot that only serves sparse cohorts never holds any.
type cohortState struct {
	ps   []*psState // nil until the slot's first plan-template bind
	kern []vpKernel
	cx   cohortCtx // zero (nil spec) while the slot is unbound
	// seed is the bound cohort's seed: its start placement and every
	// step's item-seed prefix derive from it.
	seed uint64
}

// newPSStates allocates one PS state per PS partition of the plan (one
// VID per edge of the partition) and nil for the others.
func (e *Engine) newPSStates() []*psState {
	ps := make([]*psState, e.plan.NumVPs())
	for i, vp := range e.plan.VPs {
		if !e.psVP[i] {
			continue
		}
		edges := e.g.Offsets[vp.End] - e.g.Offsets[vp.Start]
		ps[i] = &psState{
			start:     vp.Start,
			base:      e.g.Offsets[vp.Start],
			buf:       make([]graph.VID, edges),
			remaining: make([]uint32, vp.End-vp.Start),
		}
	}
	return ps
}

// bind arms the slot for one run of a walkers-strong cohort of spec and
// seed on session s, with the kernel template the engine's switch
// selects for that count (Engine.bindsPlan).
func (cs *cohortState) bind(s *Session, spec *algo.Spec, walkers, seed uint64) {
	cs.seed = seed
	cs.bindTemplate(s, spec, s.e.bindsPlan(walkers))
}

// bindTemplate arms the slot with the plan's kernel template (plan) or
// the sparse one: the template for the spec's weighting is copied, PS
// buffers — plan template only — are allocated on first use or reset to
// empty, the table's st pointers are pointed at them, and the context
// at the session's overlay. Every run's slot state is thereby
// indistinguishable from a freshly built one, whatever the slot ran
// before.
func (cs *cohortState) bindTemplate(s *Session, spec *algo.Spec, plan bool) {
	e := s.e
	var ws *algo.WeightedSampler
	if spec.Weighted {
		ws = e.weighted
	}
	// The kernel table depends only on (plan, template, weighting), so
	// binding copies a prebuilt template — one memmove — instead of
	// re-resolving every partition's kernel on each run.
	tpl := e.template(plan, ws != nil)
	if cap(cs.kern) < len(tpl) {
		cs.kern = make([]vpKernel, len(tpl))
	}
	cs.kern = cs.kern[:len(tpl)]
	copy(cs.kern, tpl)
	if plan {
		if cs.ps == nil {
			cs.ps = e.newPSStates()
		}
		for i, st := range cs.ps {
			if st == nil {
				continue
			}
			clear(st.remaining)
			cs.kern[i].st = st
		}
	}
	cs.cx = cohortCtx{e: e, spec: spec, kern: cs.kern,
		weighted: ws, ov: s.ov, class: classifySpec(spec)}
}

// ResolveCohorts validates cohorts against the build and resolves their
// defaults (Walkers 0 → |V|, Steps 0 → Spec.Steps), returning the
// resolved copy and the widest cohort's aux channel count. Exported
// because the sharded topology (internal/shard) must admit cohorts under
// exactly RunMixed's rules — a request a single engine would reject must
// not sneak through a sharded one.
func (e *Engine) ResolveCohorts(cohorts []Cohort) ([]Cohort, int, error) {
	if len(cohorts) == 0 {
		return nil, 0, fmt.Errorf("core: mixed run needs at least one cohort")
	}
	resolved := make([]Cohort, len(cohorts))
	copy(resolved, cohorts)
	channels := 0
	for i := range resolved {
		c := &resolved[i]
		if err := c.Spec.Validate(); err != nil {
			return nil, 0, fmt.Errorf("core: cohort %d: %w", i, err)
		}
		if err := e.streamable(&c.Spec); err != nil {
			return nil, 0, fmt.Errorf("cohort %d: %w", i, err)
		}
		if c.Spec.Weighted {
			if c.Spec.Order == 2 {
				return nil, 0, fmt.Errorf("core: cohort %d: weighted second-order walks are not supported", i)
			}
			if e.weighted == nil {
				return nil, 0, fmt.Errorf("core: cohort %d is weighted but the engine was built without weighted sampling (build with a weighted primary spec)", i)
			}
		}
		if c.Walkers == 0 {
			c.Walkers = uint64(e.g.NumVertices())
		}
		if c.Steps == 0 {
			c.Steps = c.Spec.Steps
		}
		if c.Steps < 0 {
			return nil, 0, fmt.Errorf("core: cohort %d: negative step count", i)
		}
		if ch := auxChannelsFor(&c.Spec); ch > channels {
			channels = ch
		}
	}
	return resolved, channels, nil
}

// RunMixed executes the given cohorts as one shared pipeline run on a
// fresh session. See Session.RunMixed.
func (e *Engine) RunMixed(cohorts []Cohort) (*MixedResult, error) {
	s, err := e.NewSession(context.Background())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.RunMixed(cohorts)
}

// RunMixed advances every cohort through one shared sample→shuffle
// pipeline: all cohorts' walkers travel in one walker array (contiguous
// cohort segments), shuffle together, and are sampled in one partition
// sweep per step, with each partition chunk dispatched per cohort segment
// to that cohort's kernels. Cohorts with shorter walks retire from the
// sweep as their steps complete — the active walker set shrinks instead
// of padding to the longest cohort.
//
// Determinism: each cohort's trajectories are bitwise-identical to the
// same (spec, seed, walkers, steps) running alone via RunSeeded — walker
// init and every sample draw derive from the cohort's own seed, the
// kernel template follows from the cohort's own walker count, PS buffers
// are per-cohort and start empty, and the shuffle permutation within
// every partition chunk preserves walker order, so a cohort's walkers see
// the same draws whatever rides alongside. (A solo RunSeeded must fit in
// one episode for the comparison: mixed runs never episode-split, and
// return an error when a MemoryBudget would force them to.)
//
// The run orders the cohorts by ExecutionOrder, binds slot k to the
// k-th, and makes one call of the session's run driver at episode 0 —
// the driver RunSeeded calls once per episode.
func (s *Session) RunMixed(cohorts []Cohort) (*MixedResult, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	e := s.e
	resolved, channels, err := e.ResolveCohorts(cohorts)
	if err != nil {
		return nil, err
	}
	if s.ov != nil {
		for i := range resolved {
			if err := checkOverlaySpec(&resolved[i].Spec); err != nil {
				return nil, fmt.Errorf("cohort %d: %w", i, err)
			}
		}
	}
	var totalWalkers uint64
	for i := range resolved {
		totalWalkers += resolved[i].Walkers
	}
	if e.cfg.MemoryBudget != 0 {
		if need := totalWalkers * (12 + 12*uint64(channels)); need > e.cfg.MemoryBudget {
			return nil, fmt.Errorf("core: mixed run needs %d walker-array bytes but the memory budget is %d (mixed runs do not split into episodes)", need, e.cfg.MemoryBudget)
		}
	}

	// Slot k runs the k-th cohort of the execution order, bound to the
	// template its own walker count selects, with private PS buffers when
	// that is the plan's.
	start := time.Now()
	order := ExecutionOrder(resolved)
	ordered := make([]Cohort, len(order))
	slots := s.cohortSlots(len(order))
	for k, i := range order {
		ordered[k] = resolved[i]
		slots[k].bind(s, &resolved[i].Spec, resolved[i].Walkers, resolved[i].Seed)
	}
	hist, err := s.drive(ordered, 0, nil)
	if err != nil {
		return nil, err
	}

	res := &MixedResult{
		Cohorts: make([]CohortResult, len(resolved)),
		Walkers: totalWalkers,
	}
	for k, i := range order {
		c := &resolved[i]
		res.Cohorts[i] = CohortResult{
			Walkers:    c.Walkers,
			Steps:      c.Steps,
			TotalSteps: c.Walkers * uint64(c.Steps),
			History:    hist[k],
		}
		res.TotalSteps += res.Cohorts[i].TotalSteps
	}
	if m := s.m; m != nil {
		m.mixedRuns.Inc()
		m.mixedRunCohorts.Observe(uint64(len(resolved)))
	}
	res.StageTimes, res.VPSteps, res.Report = s.finish(start, totalWalkers)
	return res, nil
}

// ExecutionOrder returns the order a mixed run steps its resolved
// cohorts in: longest walk first, equal step counts in caller order (a
// stable sort). Slot k runs cohorts[order[k]], so at every step the
// still-active cohorts are a prefix and retirement only shrinks the
// walker arrays. Exported so the sharded topology lays its waves out in
// the same order.
func ExecutionOrder(cohorts []Cohort) []int {
	order := make([]int, len(cohorts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cohorts[b].Steps - cohorts[a].Steps
	})
	return order
}

// cohortLayout locates several cohorts' walkers inside every partition
// chunk of one step. The shuffle is stable — walkers of one partition
// keep ascending walker-array order — so with cohorts laid out as
// contiguous segments of the walker array, cohort k's walkers form one
// contiguous subrange of every chunk, whose length is counts[k][vp].
type cohortLayout struct {
	counts [][]uint32
	// occ[vp*words+w] holds bit k of word w set iff cohort k has walkers
	// in partition vp this step: most (partition, cohort) cells are empty
	// once walkers spread out, so the item builder walks the set bits
	// instead of scanning every active cohort at every partition.
	occ   []uint64
	words int
	// touched lists the partitions whose occ row is non-empty this step,
	// so the next count resets exactly those rows and their counts.
	touched []int32
}

// grow sizes the layout for up to cohorts cohorts over nvp partitions,
// keeping what it already holds: a session's layout grows to its
// high-water cohort count and is never rebuilt per run.
func (l *cohortLayout) grow(cohorts, nvp int) {
	if words := (cohorts + 63) / 64; words > l.words {
		l.clear() // the last count's cells, under the old word stride
		l.occ, l.words = make([]uint64, nvp*words), words
		if l.touched == nil {
			l.touched = make([]int32, 0, nvp) // one entry per partition at most
		}
	}
	for len(l.counts) < cohorts {
		l.counts = append(l.counts, make([]uint32, nvp))
	}
}

// clear resets the cells the last count set. touched lists their
// partitions and occ their cohorts, and they number at most the walkers
// counted — no scan or clear of the dense partitions×words grid.
func (l *cohortLayout) clear() {
	for _, vp := range l.touched {
		row := l.occ[int(vp)*l.words : (int(vp)+1)*l.words]
		for wd, m := range row {
			for ; m != 0; m &= m - 1 {
				l.counts[wd<<6+bits.TrailingZeros64(m)][vp] = 0
			}
			row[wd] = 0
		}
	}
	l.touched = l.touched[:0]
}

// count recomputes the layout from the pre-shuffle walker array w, in
// which cohort k occupies w[offs[k]:offs[k+1]]. It is one pass over the
// active walkers.
func (l *cohortLayout) count(lk *part.Lookup, w []graph.VID, offs []uint64) {
	l.clear()
	for k := 0; k+1 < len(offs); k++ {
		counts := l.counts[k]
		bit := uint64(1) << (uint(k) & 63)
		wd := k >> 6
		for _, v := range w[offs[k]:offs[k+1]] {
			vp := lk.VPOf(v)
			counts[vp]++
			if cell := &l.occ[vp*l.words+wd]; *cell&bit == 0 {
				// First walker of cohort k here: record the partition if
				// no earlier cohort did.
				if !l.rowSet(vp) {
					l.touched = append(l.touched, int32(vp))
				}
				*cell |= bit
			}
		}
	}
}

// rowSet reports whether any cohort has walkers in partition vp yet.
func (l *cohortLayout) rowSet(vp int) bool {
	for _, m := range l.occ[vp*l.words : (vp+1)*l.words] {
		if m != 0 {
			return true
		}
	}
	return false
}
