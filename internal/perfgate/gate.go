package perfgate

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Verdict is the gate's judgement on one gated metric.
type Verdict string

// The per-metric verdicts a comparison can produce.
const (
	// VerdictOK means the metric stayed inside the noise band.
	VerdictOK Verdict = "ok"
	// VerdictRegressed means the metric moved past the band in the bad
	// direction — this is what fails the gate.
	VerdictRegressed Verdict = "REGRESSED"
	// VerdictImproved means the metric moved past the band in the good
	// direction (reported, never failing).
	VerdictImproved Verdict = "improved"
)

// MetricVerdict is the gate's full accounting for one gated metric.
type MetricVerdict struct {
	// Key is the flattened metric key.
	Key string
	// Direction is the classification that decided good vs bad movement.
	Direction Direction
	// Base is the baseline statistic the band was derived from.
	Base Stat
	// Cur is the fresh measurement.
	Cur Stat
	// Band is the half-width of the allowed interval around Base.Mean.
	Band float64
	// Verdict is the judgement.
	Verdict Verdict
}

// DeltaPct is the relative movement of the mean versus baseline, in
// percent (+ means the value grew).
func (m MetricVerdict) DeltaPct() float64 {
	if m.Base.Mean == 0 {
		return 0
	}
	return 100 * (m.Cur.Mean - m.Base.Mean) / math.Abs(m.Base.Mean)
}

// CellVerdict aggregates one cell's metric verdicts.
type CellVerdict struct {
	// Label identifies the cell (Cell.Label form).
	Label string
	// Metrics holds one verdict per gated metric, key-sorted.
	Metrics []MetricVerdict
	// NewMetrics lists gated metrics present only in the fresh run
	// (future baselines will cover them; reported, never failing).
	NewMetrics []string
}

// Regressions counts this cell's regressed metrics.
func (c CellVerdict) Regressions() int {
	n := 0
	for _, m := range c.Metrics {
		if m.Verdict == VerdictRegressed {
			n++
		}
	}
	return n
}

// Improvements counts this cell's improved metrics.
func (c CellVerdict) Improvements() int {
	n := 0
	for _, m := range c.Metrics {
		if m.Verdict == VerdictImproved {
			n++
		}
	}
	return n
}

// GateResult is the gate's judgement for one experiment.
type GateResult struct {
	// Experiment names the compared reports.
	Experiment string
	// BaselineSHA and CurrentSHA record what was compared with what.
	BaselineSHA string
	// CurrentSHA is the fresh run's commit.
	CurrentSHA string
	// HostDrift notes a baseline recorded on a different-looking host
	// (reported, never failing — but it explains wide deltas).
	HostDrift string
	// Cells holds one verdict per baseline cell, in baseline order.
	Cells []CellVerdict
}

// Regressions counts regressed metrics across all cells.
func (g *GateResult) Regressions() int {
	n := 0
	for _, c := range g.Cells {
		n += c.Regressions()
	}
	return n
}

// Compare gates a fresh grid report against its committed baseline.
//
// A structural divergence — different schema versions, a baseline cell
// or gated metric missing from the fresh run, or a configuration leaf
// whose value changed — returns an error rather than a verdict: a gate
// that cannot find what it is supposed to check must fail loudly, not
// pass vacuously. Metric movement inside the k·σ noise band (see
// GateConfig.Band) is VerdictOK; movement past the band is
// VerdictRegressed or VerdictImproved by the metric's direction.
func Compare(base, cur *GridReport, gc GateConfig) (*GateResult, error) {
	if base.Experiment != cur.Experiment {
		return nil, fmt.Errorf("gate: baseline is experiment %q, current is %q", base.Experiment, cur.Experiment)
	}
	if base.SchemaVersion != cur.SchemaVersion {
		return nil, fmt.Errorf("gate: %s: baseline schema_version %d vs current %d — regenerate the baseline (make bench-grid && make bench-baseline)",
			base.Experiment, base.SchemaVersion, cur.SchemaVersion)
	}
	res := &GateResult{
		Experiment:  base.Experiment,
		BaselineSHA: base.GitSHA,
		CurrentSHA:  cur.GitSHA,
	}
	res.HostDrift = hostDrift(base.Host, cur.Host)
	for _, bc := range base.Cells {
		cc := cur.FindCell(bc.Label())
		if cc == nil {
			return nil, fmt.Errorf("gate: %s: baseline cell %q missing from current run — the grids diverged; update the manifest and baseline together",
				base.Experiment, bc.Label())
		}
		cv, err := compareCell(base.Experiment, bc, cc, gc)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cv)
	}
	return res, nil
}

// hostDrift describes how the current host differs from the
// baseline's in OS, arch, CPU count or caches ("" when it does not). A
// side that recorded no caches is not a cache difference.
func hostDrift(base, cur Host) string {
	var notes []string
	if base.OS != cur.OS || base.Arch != cur.Arch || base.CPUs != cur.CPUs {
		notes = append(notes, fmt.Sprintf("baseline host %s/%s ×%d, current %s/%s ×%d",
			base.OS, base.Arch, base.CPUs, cur.OS, cur.Arch, cur.CPUs))
	}
	if len(base.Caches) > 0 && len(cur.Caches) > 0 && !slices.Equal(base.Caches, cur.Caches) {
		notes = append(notes, fmt.Sprintf("baseline caches %v, current %v", base.Caches, cur.Caches))
	}
	return strings.Join(notes, "; ")
}

// compareCell gates one cell.
func compareCell(exp string, base, cur *CellResult, gc GateConfig) (CellVerdict, error) {
	cv := CellVerdict{Label: base.Label()}
	for k, bv := range base.Config {
		if cval, ok := cur.Config[k]; ok && cval != bv {
			return cv, fmt.Errorf("gate: %s cell %s: config %q is %q, baseline recorded %q — schema/workload mismatch, not a perf verdict",
				exp, cv.Label, k, cval, bv)
		}
	}
	for _, key := range base.MetricKeys() {
		dir := gc.Direction(key)
		if dir != LowerIsBetter && dir != HigherIsBetter {
			continue
		}
		bs := base.Metrics[key]
		cs, ok := cur.Metrics[key]
		if !ok {
			return cv, fmt.Errorf("gate: %s cell %s: baseline metric %q missing from current run — schema mismatch, refusing to pass vacuously",
				exp, cv.Label, key)
		}
		mv := MetricVerdict{Key: key, Direction: dir, Base: bs, Cur: cs, Band: gc.Band(bs)}
		mv.Verdict = judge(dir, bs.Mean, cs.Mean, mv.Band)
		cv.Metrics = append(cv.Metrics, mv)
	}
	for _, key := range cur.MetricKeys() {
		if _, ok := base.Metrics[key]; ok {
			continue
		}
		if dir := gc.Direction(key); dir == LowerIsBetter || dir == HigherIsBetter {
			cv.NewMetrics = append(cv.NewMetrics, key)
		}
	}
	sort.Strings(cv.NewMetrics)
	return cv, nil
}

// judge applies the band in the metric's direction.
func judge(dir Direction, base, cur, band float64) Verdict {
	switch {
	case cur > base+band:
		if dir == LowerIsBetter {
			return VerdictRegressed
		}
		return VerdictImproved
	case cur < base-band:
		if dir == LowerIsBetter {
			return VerdictImproved
		}
		return VerdictRegressed
	default:
		return VerdictOK
	}
}

// Render writes the human-facing verdict report: one table row per
// cell, then detail lines for every out-of-band metric.
func (g *GateResult) Render(w io.Writer) {
	fmt.Fprintf(w, "gate %s: baseline %s vs current %s\n", g.Experiment, g.BaselineSHA, g.CurrentSHA)
	if g.HostDrift != "" {
		fmt.Fprintf(w, "  note: %s\n", g.HostDrift)
	}
	fmt.Fprintf(w, "  %-40s %-10s %9s %9s %6s\n", "cell", "verdict", "regress", "improve", "gated")
	for _, c := range g.Cells {
		verdict := string(VerdictOK)
		if c.Regressions() > 0 {
			verdict = string(VerdictRegressed)
		} else if c.Improvements() > 0 {
			verdict = string(VerdictImproved)
		}
		fmt.Fprintf(w, "  %-40s %-10s %9d %9d %6d\n", c.Label, verdict, c.Regressions(), c.Improvements(), len(c.Metrics))
	}
	for _, c := range g.Cells {
		for _, m := range c.Metrics {
			if m.Verdict == VerdictOK {
				continue
			}
			fmt.Fprintf(w, "  %s cell %s: %s %s\n", g.Experiment, c.Label, m.Verdict, m.Key)
			fmt.Fprintf(w, "    baseline %.6g ± %.6g (n=%d), current %.6g, Δ %+.1f%%, allowed ± %.6g (%s-is-better)\n",
				m.Base.Mean, m.Base.Std, m.Base.N, m.Cur.Mean, m.DeltaPct(), m.Band, m.Direction)
		}
		if len(c.NewMetrics) > 0 {
			fmt.Fprintf(w, "  %s cell %s: %d new gated metric(s) with no baseline: %v\n",
				g.Experiment, c.Label, len(c.NewMetrics), c.NewMetrics)
		}
	}
}
