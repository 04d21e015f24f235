package flashmob

import (
	"fmt"
	"time"

	"flashmob/internal/core"
	"flashmob/internal/obs"
	"flashmob/internal/stats"
	"flashmob/internal/walk"
)

// Report is a point-in-time snapshot of a metrics registry: counters,
// gauges, histograms, and labelled counter vectors, each carrying its own
// descriptor (name, unit, stage, help). Returned by Result.Report when
// Options.Metrics is set; serialize with its WriteJSON method. Every
// field is documented in docs/OBSERVABILITY.md.
type Report = obs.Report

// Result reports a completed walk. Vertex IDs in every accessor are the
// caller's original IDs (the internal degree-sorted renumbering is
// translated back transparently).
type Result struct {
	inner    *core.Result
	newToOld []VID
}

// PerStepNS returns the headline metric: wall nanoseconds per walker-step.
func (r *Result) PerStepNS() float64 { return r.inner.PerStepNS() }

// Paths returns one path per walker in original vertex IDs. Requires
// Options.RecordPaths.
func (r *Result) Paths() ([][]VID, error) { return pathsOf(r.inner.History, r.newToOld) }

// pathsOf transposes a recorded history into one path per walker,
// relabelling every element to its original vertex ID as it goes: the one
// path-extraction pass behind Result.Paths and MixedResult.Paths. The
// paths are windows of one flat walker-major buffer.
func pathsOf(h *walk.History, newToOld []VID) ([][]VID, error) {
	if h == nil {
		return nil, fmt.Errorf("flashmob: paths not recorded; set Options.RecordPaths")
	}
	return h.Transpose(newToOld), nil
}

// VisitCounts returns walker-step counts per original vertex ID. Requires
// Options.RecordPaths.
func (r *Result) VisitCounts() ([]uint64, error) {
	h := r.inner.History
	if h == nil {
		return nil, fmt.Errorf("flashmob: history not recorded; set Options.RecordPaths")
	}
	sorted := h.VisitCounts(uint32(len(r.newToOld)))
	out := make([]uint64, len(sorted))
	for nv, c := range sorted {
		out[r.newToOld[nv]] = c
	}
	return out, nil
}

// DegreeGroupStats returns the paper's Table 2 statistics (per
// degree-percentile bucket: average degree, edge share, visit share) for
// this run. Requires Options.RecordPaths.
func (r *Result) DegreeGroupStats(g *Graph) ([]stats.GroupStats, error) {
	visits, err := r.VisitCounts()
	if err != nil {
		return nil, err
	}
	return stats.DegreeGroups(g, visits)
}

// Timing breaks down the run's wall time by pipeline stage.
type Timing struct {
	// Total is the whole run's wall time; Sample and Shuffle are the two
	// pipeline stages' shares, and Other is everything else (episode
	// setup, walker init, history writes).
	Total, Sample, Shuffle, Other time.Duration
}

// Timing returns the stage breakdown (the paper's Figure 9a split).
func (r *Result) Timing() Timing { return timingOf(r.inner.StageTimes) }

// timingOf converts an engine run's stage split into a Timing.
func timingOf(t core.StageTimes) Timing {
	return Timing{Total: t.Duration, Sample: t.SampleTime, Shuffle: t.ShuffleTime, Other: t.OtherTime}
}

// Walkers returns how many walkers ran.
func (r *Result) Walkers() uint64 { return r.inner.Walkers }

// Steps returns the walk length.
func (r *Result) Steps() int { return r.inner.Steps }

// TotalSteps returns walkers × steps.
func (r *Result) TotalSteps() uint64 { return r.inner.TotalSteps }

// Episodes returns how many memory-budgeted rounds the run took.
func (r *Result) Episodes() int { return r.inner.Episodes }

// Report returns the run's metrics snapshot: System.Walk results describe
// that Walk alone; results from an explicitly held Session cover the
// session's Walks so far. The System-lifetime aggregate (every closed
// session folded together) is not exposed here — fmbench and tests reach
// it through the engine's MetricsReport. Nil unless the System was
// created with Options.Metrics.
func (r *Result) Report() *Report { return r.inner.Report }
