package core

import (
	"context"
	"runtime/pprof"
	"strconv"

	"flashmob/internal/algo"
	"flashmob/internal/obs"
)

// kernelKindNames labels the kernel-kind slots of the
// core_sample_kernel_walker_steps vector, in kernelKind order.
var kernelKindNames = [...]string{"empty", "ps", "ps-weighted", "ds-regular", "ds-csr", "ds-weighted"}

// cohortClassNames labels the walk-shape slots of the
// core_cohort_walker_steps vector, in classifySpec order.
var cohortClassNames = [...]string{"uniform", "weighted", "node2vec", "order-k", "stop"}

// classifySpec maps a walk spec to its cohortClassNames slot. Precedence
// mirrors the sample-stage dispatch: a bounded-history transition is
// "order-k" whatever else it sets, plain second order is "node2vec",
// stochastic termination is "stop", weight-proportional first order is
// "weighted", and everything else is the "uniform" first-order walk.
func classifySpec(sp *algo.Spec) int {
	switch {
	case sp.History != nil:
		return 3
	case sp.Order == 2:
		return 2
	case sp.StopProb > 0:
		return 4
	case sp.Weighted:
		return 1
	default:
		return 0
	}
}

// engineMetrics is one complete metric set over one registry, built when
// Config.Metrics is set; a nil *engineMetrics disables every recording
// site (the off path is one nil check per site, none of them per walker).
// Instances are the engine-lifetime aggregate built by New and one set
// per session, built on the session's first acquisition and reused by
// every later one — sessions record into their own registries (so each
// Result.Report describes its own run) and drain into the aggregate on
// Session.Close, which leaves them zeroed for the next acquisition. All metric pointers are resolved here up front so the
// hot path never consults the registry.
type engineMetrics struct {
	reg *obs.Registry

	// Run-level accounting.
	runs, episodes, steps, walkers *obs.Counter

	// Per-step stage durations (one observation per pipeline step).
	sampleStepNS, shuffleFwdStepNS, shuffleRevStepNS *obs.Histogram

	// Sample-stage structure: work items per step, and how many of them
	// were sub-shards of split oversized DS chunks.
	sampleItems     *obs.Histogram
	sampleSubShards *obs.Counter

	// Per-partition accounting: walker-steps sampled and sample time, and
	// walker-steps per kernel kind (the §4.2 specialization mix).
	vpWalkerSteps *obs.CounterVec
	vpSampleNS    *obs.CounterVec
	kernelSteps   *obs.CounterVec

	// Mixed-run accounting: walker-steps per walk shape (solo runs charge
	// their single shape), RunMixed invocations, and the cohort count each
	// mixed run carried.
	cohortSteps     *obs.CounterVec
	mixedRuns       *obs.Counter
	mixedRunCohorts *obs.Histogram

	// pool carries the worker pool's busy/barrier accounting.
	pool *obs.PoolMetrics

	// pprof label contexts: sampleCtx tags the sample stage as a whole,
	// vpCtx[i] additionally tags partition i while a worker samples it.
	sampleCtx context.Context
	vpCtx     []context.Context
}

// newEngineMetrics builds one metric set. proto, when non-nil, is the
// engine's aggregate set: the new set shares its pprof label contexts
// (labels are identical across sessions — only the counters are
// per-session) instead of rebuilding one context per partition.
func newEngineMetrics(e *Engine, proto *engineMetrics) *engineMetrics {
	reg := obs.NewRegistry()
	nvp := e.plan.NumVPs()
	m := &engineMetrics{
		reg: reg,
		runs: reg.Counter(obs.Desc{
			Name: "core_runs_total", Unit: "count", Stage: "run",
			Help: "Engine.Run invocations",
		}),
		episodes: reg.Counter(obs.Desc{
			Name: "core_episodes_total", Unit: "count", Stage: "run",
			Help: "memory-budgeted episodes executed",
		}),
		steps: reg.Counter(obs.Desc{
			Name: "core_steps_total", Unit: "count", Stage: "run",
			Help: "pipeline steps executed (episodes × walk length)",
		}),
		walkers: reg.Counter(obs.Desc{
			Name: "core_walkers_total", Unit: "walkers", Stage: "run",
			Help: "walkers advanced across all episodes",
		}),
		sampleStepNS: reg.Histogram(obs.Desc{
			Name: "core_sample_step_ns", Unit: "ns", Stage: "sample",
			Help: "sample-stage wall time per pipeline step",
		}),
		shuffleFwdStepNS: reg.Histogram(obs.Desc{
			Name: "core_shuffle_fwd_step_ns", Unit: "ns", Stage: "shuffle",
			Help: "forward-shuffle (count+scatter+inner) wall time per pipeline step",
		}),
		shuffleRevStepNS: reg.Histogram(obs.Desc{
			Name: "core_shuffle_rev_step_ns", Unit: "ns", Stage: "shuffle",
			Help: "reverse-shuffle (gather) wall time per pipeline step",
		}),
		sampleItems: reg.Histogram(obs.Desc{
			Name: "core_sample_items_per_step", Unit: "count", Stage: "sample",
			Help: "sample-stage work items per step (non-empty partitions plus DS sub-shards)",
		}),
		sampleSubShards: reg.Counter(obs.Desc{
			Name: "core_sample_subshards_total", Unit: "count", Stage: "sample",
			Help: "work items produced by splitting oversized direct-sampling chunks",
		}),
		vpWalkerSteps: reg.CounterVec(obs.Desc{
			Name: "core_vp_walker_steps", Unit: "walkers", Stage: "sample",
			Help: "walker-steps sampled per vertex partition (Fig 10b weighting); index is the VP",
		}, nvp, nil),
		vpSampleNS: reg.CounterVec(obs.Desc{
			Name: "core_vp_sample_ns", Unit: "ns", Stage: "sample",
			Help: "sample wall time accumulated per vertex partition (work items attributed to their VP); index is the VP",
		}, nvp, nil),
		kernelSteps: reg.CounterVec(obs.Desc{
			Name: "core_sample_kernel_walker_steps", Unit: "walkers", Stage: "sample",
			Help: "walker-steps advanced per specialized kernel kind (§4.2 policy mix)",
		}, len(kernelKindNames), kernelKindNames[:]),
		cohortSteps: reg.CounterVec(obs.Desc{
			Name: "core_cohort_walker_steps", Unit: "walkers", Stage: "sample",
			Help: "walker-steps advanced per walk shape (cohorts of mixed runs and solo runs alike)",
		}, len(cohortClassNames), cohortClassNames[:]),
		mixedRuns: reg.Counter(obs.Desc{
			Name: "core_mixed_runs_total", Unit: "count", Stage: "run",
			Help: "RunMixed invocations (multi-cohort shared-pipeline runs)",
		}),
		mixedRunCohorts: reg.Histogram(obs.Desc{
			Name: "core_mixed_run_cohorts", Unit: "count", Stage: "run",
			Help: "cohorts carried per RunMixed invocation",
		}),
		pool: obs.NewPoolMetrics(reg, e.pool.Workers()),
	}
	if proto != nil {
		m.sampleCtx = proto.sampleCtx
		m.vpCtx = proto.vpCtx
		return m
	}
	m.sampleCtx = pprof.WithLabels(context.Background(), pprof.Labels("stage", "sample"))
	m.vpCtx = make([]context.Context, nvp)
	for i := range m.vpCtx {
		m.vpCtx[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("stage", "sample", "vp", strconv.Itoa(i)))
	}
	return m
}

// MetricsReport snapshots the engine-lifetime aggregate registry: the
// fold of every session closed since the engine was built (an open
// session's counts arrive when it closes). Returns nil when the engine
// was created without Config.Metrics.
func (e *Engine) MetricsReport() *obs.Report {
	if e.metrics == nil {
		return nil
	}
	return e.metrics.reg.Snapshot()
}
