package flashmob

import (
	"fmt"

	"flashmob/internal/core"
)

// CohortSpec describes one walker cohort of a mixed walk: its own
// algorithm, walker count, walk length, and seed. Cohorts of one
// WalkMixed call share the engine's sample→shuffle pipeline — one
// partition sweep per step serves them all — while each samples through
// its own algorithm's kernels.
type CohortSpec struct {
	// Algorithm is the cohort's walk. Any algorithm the System's build
	// supports may appear, independent of the Options.Algorithm the System
	// was built with; weighted algorithms additionally require the System
	// to have been built with a weighted Options.Algorithm (the alias
	// tables are a build-time artifact).
	Algorithm Algorithm
	// Walkers is the cohort's walker count (0 = |V|).
	Walkers uint64
	// Steps is the cohort's walk length (0 = the algorithm's default).
	// Cohorts with shorter walks retire early instead of padding the
	// batch to the longest walk.
	Steps int
	// Seed drives the cohort's walker placement and every edge draw,
	// exactly as WalkSeeded's seed does for a solo run: the cohort's
	// trajectories are bitwise-identical to the same (algorithm, seed,
	// walkers, steps) running alone, whatever rides alongside.
	Seed uint64
}

// MixedResult reports a completed mixed walk. Vertex IDs in every
// accessor are the caller's original IDs.
type MixedResult struct {
	inner    *core.MixedResult
	newToOld []VID
}

// WalkMixed advances every cohort through one shared pipeline run on a
// fresh session. See Session.WalkMixed for the determinism contract.
func (s *System) WalkMixed(cohorts []CohortSpec) (*MixedResult, error) {
	res, err := s.engine.RunMixed(coreCohorts(cohorts))
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &MixedResult{inner: res, newToOld: s.newToOld}, nil
}

// WalkMixed advances every cohort through one shared pipeline run: all
// cohorts' walkers shuffle together and are sampled in one partition
// sweep per step, each partition chunk dispatched per cohort to that
// cohort's algorithm. On a freshly acquired session each cohort's
// trajectories are a pure function of (System build, algorithm, seed,
// walkers, steps) — bitwise-identical to the same cohort running alone
// via WalkSeeded — which is what lets the serving layer coalesce
// requests for different algorithms into one run. Mixed walks never
// split into episodes: with Options.MemoryBudget set, a batch whose
// walker arrays exceed the budget returns an error instead.
func (s *Session) WalkMixed(cohorts []CohortSpec) (*MixedResult, error) {
	res, err := s.inner.RunMixed(coreCohorts(cohorts))
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &MixedResult{inner: res, newToOld: s.newToOld}, nil
}

// coreCohorts maps the public cohort specs onto the engine's.
func coreCohorts(cohorts []CohortSpec) []core.Cohort {
	out := make([]core.Cohort, len(cohorts))
	for i, c := range cohorts {
		out[i] = core.Cohort{Spec: c.Algorithm, Walkers: c.Walkers, Steps: c.Steps, Seed: c.Seed}
	}
	return out
}

// NumCohorts returns how many cohorts the walk carried.
func (r *MixedResult) NumCohorts() int { return len(r.inner.Cohorts) }

// Paths returns cohort c's paths — one per walker, in original vertex
// IDs, in the caller's cohort order. Requires Options.RecordPaths.
func (r *MixedResult) Paths(c int) ([][]VID, error) {
	return pathsOf(r.inner.Cohorts[c].History, r.newToOld)
}

// CohortWalkers returns cohort c's walker count.
func (r *MixedResult) CohortWalkers(c int) uint64 { return r.inner.Cohorts[c].Walkers }

// CohortSteps returns cohort c's resolved walk length.
func (r *MixedResult) CohortSteps(c int) int { return r.inner.Cohorts[c].Steps }

// Walkers returns the total walker count across cohorts.
func (r *MixedResult) Walkers() uint64 { return r.inner.Walkers }

// TotalSteps returns the sum of the cohorts' walker-steps.
func (r *MixedResult) TotalSteps() uint64 { return r.inner.TotalSteps }

// PerStepNS returns average wall nanoseconds per walker-step across the
// whole mixed run.
func (r *MixedResult) PerStepNS() float64 { return r.inner.PerStepNS() }

// Timing returns the run's stage breakdown.
func (r *MixedResult) Timing() Timing { return timingOf(r.inner.StageTimes) }

// Report returns the run's metrics snapshot (nil unless the System was
// created with Options.Metrics).
func (r *MixedResult) Report() *Report { return r.inner.Report }
