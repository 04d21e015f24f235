package perfgate

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v", what, got, want)
	}
}

func TestFoldValues(t *testing.T) {
	s := foldValues([]float64{2, 4, 6})
	almost(t, s.Mean, 4, 1e-12, "mean")
	almost(t, s.Std, math.Sqrt(8.0/3.0), 1e-12, "population std")
	almost(t, s.Min, 2, 0, "min")
	almost(t, s.Max, 6, 0, "max")
	if s.N != 3 {
		t.Errorf("n = %d, want 3", s.N)
	}
}

// TestFoldValuesSingleRepeat pins the repeats=1 edge: std must be
// exactly 0 (the gate's floor machinery, not the std, carries the noise
// allowance then).
func TestFoldValuesSingleRepeat(t *testing.T) {
	s := foldValues([]float64{7.5})
	if s.Std != 0 {
		t.Errorf("single-repeat std = %v, want exactly 0", s.Std)
	}
	almost(t, s.Mean, 7.5, 0, "mean")
	if s.Min != 7.5 || s.Max != 7.5 || s.N != 1 {
		t.Errorf("min/max/n = %v/%v/%d, want 7.5/7.5/1", s.Min, s.Max, s.N)
	}
}

func TestFoldRunsShapeMismatch(t *testing.T) {
	a := &Run{Metrics: map[string]float64{"x": 1}, Config: map[string]string{"g": "YT"}}
	b := &Run{Metrics: map[string]float64{"x": 2, "y": 3}, Config: map[string]string{"g": "YT"}}
	if _, err := FoldRuns(Cell{}, []*Run{a, b}); err == nil {
		t.Fatal("metric-set mismatch across repeats must be an error")
	}
	c := &Run{Metrics: map[string]float64{"x": 2}, Config: map[string]string{"g": "TW"}}
	if _, err := FoldRuns(Cell{}, []*Run{a, c}); err == nil {
		t.Fatal("config-value mismatch across repeats must be an error")
	}
	folded, err := FoldRuns(Cell{Params: map[string]string{"steps": "4"}}, []*Run{a, {Metrics: map[string]float64{"x": 3}, Config: map[string]string{"g": "YT"}}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, folded.Metrics["x"].Mean, 2, 1e-12, "folded mean")
	if folded.Repeats != 2 || folded.Label() != "steps=4" {
		t.Errorf("repeats/label = %d/%q", folded.Repeats, folded.Label())
	}
}

func TestFlattenJSON(t *testing.T) {
	doc := []byte(`{
		"schema_version": 2,
		"git_sha": "abc",
		"generated_unix": 5,
		"host": {"os": "linux"},
		"experiment": "serve",
		"gomaxprocs": 1,
		"mix_walkers": [8, 32, 128],
		"cold": false,
		"variants": [
			{"name": "batch1", "window_ms": 1, "goodput_walker_steps_per_sec": 300000.5},
			{"name": "window-1ms", "window_ms": 1, "goodput_walker_steps_per_sec": 1800000}
		]
	}`)
	r, err := FlattenJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Metrics["variants[0:batch1].goodput_walker_steps_per_sec"]; v != 300000.5 {
		t.Errorf("variant metric = %v (keys %v)", v, r.Metrics)
	}
	if v := r.Metrics["variants[1:window-1ms].window_ms"]; v != 1 {
		t.Errorf("second variant window = %v", v)
	}
	if got := r.Config["mix_walkers"]; got != "8/32/128" {
		t.Errorf("scalar array config = %q", got)
	}
	if got := r.Config["experiment"]; got != "serve" {
		t.Errorf("experiment config = %q", got)
	}
	if got := r.Config["cold"]; got != "false" {
		t.Errorf("bool config = %q", got)
	}
	// Provenance must not leak into metrics or config.
	for _, k := range []string{"schema_version", "generated_unix", "gomaxprocs"} {
		if _, ok := r.Metrics[k]; k != "gomaxprocs" && ok {
			t.Errorf("meta key %q leaked into metrics", k)
		}
	}
	if _, ok := r.Config["git_sha"]; ok {
		t.Error("git_sha leaked into config")
	}
	if _, ok := r.Config["host.os"]; ok {
		t.Error("host fingerprint leaked into config")
	}
}

func TestElementLabelStability(t *testing.T) {
	obj := map[string]any{"variant": "wc gather", "exec": "pool", "workers": 4.0}
	// Sorted field order: exec before variant; spaces sanitized.
	if got := elementLabel(obj); got != "pool/wc_gather" {
		t.Errorf("label = %q, want pool/wc_gather", got)
	}
	if got := elementLabel(map[string]any{"n": 1.0}); got != "-" {
		t.Errorf("label without strings = %q, want -", got)
	}
}

func TestDirectionRules(t *testing.T) {
	gc := GateConfig{}
	cases := map[string]Direction{
		"variants[0:b1].ns_per_walker":                LowerIsBetter,
		"end_to_end[0:YT].ns_per_step":                LowerIsBetter,
		"variants[1:w].served_p99_ms":                 LowerIsBetter,
		"variants[1:w].goodput_walker_steps_per_sec":  HigherIsBetter,
		"variants[2:d2].speedup_vs_baseline":          HigherIsBetter,
		"variants[1:w].goodput_std":                   Ignored,
		"variants[1:w].p99_std_ms":                    Ignored,
		"offered_qps":                                 Informational,
		"variants[0:b1].served":                       Informational,
		"block_budget_bytes":                          Informational,
		"variants[0:baseline-sync].io_wait_share":     LowerIsBetter,
		"variants[0:baseline-sync].stream_mb_per_sec": HigherIsBetter,
	}
	for key, want := range cases {
		if got := gc.Direction(key); got != want {
			t.Errorf("Direction(%q) = %v, want %v", key, got, want)
		}
	}
	// Manifest-supplied patterns take precedence over built-ins.
	custom := GateConfig{Ignore: []string{"goodput"}, Lower: []string{"offered_qps"}}
	if got := custom.Direction("variants[1:w].goodput_walker_steps_per_sec"); got != Ignored {
		t.Errorf("custom ignore lost to builtin: %v", got)
	}
	if got := custom.Direction("offered_qps"); got != LowerIsBetter {
		t.Errorf("custom lower ignored: %v", got)
	}
}

// TestBandFloors pins the noise model: the band is k × max(std,
// rel_floor·|mean|, abs_floor), so near-zero-variance cells still
// tolerate jitter and near-zero means still have a nonzero band.
func TestBandFloors(t *testing.T) {
	gc := GateConfig{Sigma: 3, RelFloor: 0.10, AbsFloor: 0.001}
	// std dominates
	almost(t, gc.Band(Stat{Mean: 100, Std: 20}), 60, 1e-9, "std band")
	// rel floor dominates (std ~ 0, e.g. repeats=1)
	almost(t, gc.Band(Stat{Mean: 100, Std: 0}), 30, 1e-9, "rel-floor band")
	// abs floor dominates (mean ~ 0)
	almost(t, gc.Band(Stat{Mean: 0, Std: 0}), 0.003, 1e-12, "abs-floor band")
	// defaults: sigma 3, rel 5%, abs 1e-9
	def := GateConfig{}
	almost(t, def.Band(Stat{Mean: 10, Std: 0}), 1.5, 1e-9, "default band")
}

func TestManifestCellExpansion(t *testing.T) {
	e := Experiment{
		Name: "x",
		Grid: map[string][]string{
			"steps":   {"4", "8"},
			"workers": {"1", "2", "4"},
			"targetv": {"8000"},
		},
	}
	cells := e.Cells()
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	// Deterministic order: sorted flag names, listed value order.
	if cells[0].Label() != "steps=4,targetv=8000,workers=1" {
		t.Errorf("first cell %q", cells[0].Label())
	}
	if cells[5].Label() != "steps=8,targetv=8000,workers=4" {
		t.Errorf("last cell %q", cells[5].Label())
	}
	if (Experiment{Name: "y"}).Cells()[0].Label() != "default" {
		t.Error("empty grid must yield the default cell")
	}
}

func TestManifestValidate(t *testing.T) {
	ok := Manifest{SchemaVersion: 1, Experiments: []Experiment{{Name: "a"}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := []Manifest{
		{SchemaVersion: 99, Experiments: []Experiment{{Name: "a"}}},
		{SchemaVersion: 1},
		{SchemaVersion: 1, Experiments: []Experiment{{Name: "a"}, {Name: "a"}}},
		{SchemaVersion: 1, Experiments: []Experiment{{Name: "a", Grid: map[string][]string{"f": {}}}}},
		{SchemaVersion: 1, Experiments: []Experiment{{Name: "a", Grid: map[string][]string{"-f": {"1"}}}}},
		{SchemaVersion: 1, Experiments: []Experiment{{Name: "a", Repeats: -1}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad manifest %d accepted", i)
		}
	}
}

func TestExperimentDefaults(t *testing.T) {
	m := &Manifest{SchemaVersion: 1, Repeats: 5}
	if got := (Experiment{Name: "a"}).RepeatsOrDefault(m); got != 5 {
		t.Errorf("manifest default repeats: got %d", got)
	}
	if got := (Experiment{Name: "a", Repeats: 2}).RepeatsOrDefault(m); got != 2 {
		t.Errorf("experiment override: got %d", got)
	}
	if got := (Experiment{Name: "a"}).RepeatsOrDefault(&Manifest{}); got != 1 {
		t.Errorf("floor: got %d", got)
	}
	if got := (Experiment{Name: "shuffle"}).OutputFile(); got != "BENCH_shuffle.json" {
		t.Errorf("default output file %q", got)
	}
	if got := (Experiment{Name: "a", Output: "X.json"}).OutputFile(); got != "X.json" {
		t.Errorf("explicit output file %q", got)
	}
}

func TestGateConfigValidate(t *testing.T) {
	if err := (GateConfig{Sigma: -1}).Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if err := (GateConfig{Sigma: 2, RelFloor: 0.5}).Validate(); err != nil {
		t.Errorf("valid gate rejected: %v", err)
	}
}

// report builds a minimal grid report for gate tests.
func report(exp string, schema int, metrics map[string]Stat) *GridReport {
	return &GridReport{
		Meta:       Meta{SchemaVersion: schema, GitSHA: "test"},
		Experiment: exp,
		Repeats:    3,
		Cells: []*CellResult{{
			Repeats: 3,
			Config:  map[string]string{"graph": "YT"},
			Metrics: metrics,
		}},
	}
}

// TestGateBoundary pins the k·σ verdict exactly at the band edge:
// movement equal to the band is OK, an epsilon past it regresses.
func TestGateBoundary(t *testing.T) {
	gc := GateConfig{Sigma: 3, RelFloor: 1e-9, AbsFloor: 1e-12}
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 100, Std: 2, N: 3},
	})
	band := gc.Band(base.Cells[0].Metrics["variants[0:a].ns_per_step"]) // = 6

	atEdge := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 100 + band, Std: 1, N: 3},
	})
	res, err := Compare(base, atEdge, gc)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Metrics[0].Verdict; v != VerdictOK {
		t.Errorf("at band edge: %v, want ok", v)
	}

	pastEdge := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 100 + band + 1e-6, Std: 1, N: 3},
	})
	res, err = Compare(base, pastEdge, gc)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Metrics[0].Verdict; v != VerdictRegressed {
		t.Errorf("past band edge: %v, want REGRESSED", v)
	}
	if res.Regressions() != 1 {
		t.Errorf("regressions = %d, want 1", res.Regressions())
	}

	improved := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 100 - band - 1e-6, Std: 1, N: 3},
	})
	res, err = Compare(base, improved, gc)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Metrics[0].Verdict; v != VerdictImproved {
		t.Errorf("improvement: %v, want improved", v)
	}
}

// TestGateDirection checks higher-is-better metrics regress downward.
func TestGateDirection(t *testing.T) {
	gc := GateConfig{Sigma: 2, RelFloor: 1e-9, AbsFloor: 1e-12}
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].goodput_walker_steps_per_sec": {Mean: 1000, Std: 50, N: 3},
	})
	worse := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].goodput_walker_steps_per_sec": {Mean: 850, Std: 50, N: 3},
	})
	res, err := Compare(base, worse, gc)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Metrics[0].Verdict; v != VerdictRegressed {
		t.Errorf("goodput drop past band: %v, want REGRESSED", v)
	}
	better := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].goodput_walker_steps_per_sec": {Mean: 1150, Std: 50, N: 3},
	})
	if res, _ = Compare(base, better, gc); res.Cells[0].Metrics[0].Verdict != VerdictImproved {
		t.Error("goodput gain past band must be improved")
	}
}

// TestGateNearZeroVarianceFloor is the repeats=1 scenario: std 0, so
// without the floor any jitter would regress; with the default 5% rel
// floor a 1% move is OK and a 20% move still fails.
func TestGateNearZeroVarianceFloor(t *testing.T) {
	gc := GateConfig{} // defaults: 3σ, 5% rel floor
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 0, N: 1},
	})
	jitter := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50.5, Std: 0, N: 1},
	})
	res, err := Compare(base, jitter, gc)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Metrics[0].Verdict; v != VerdictOK {
		t.Errorf("1%% jitter on zero-variance cell: %v, want ok", v)
	}
	blown := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 60, Std: 0, N: 1},
	})
	if res, _ = Compare(base, blown, gc); res.Cells[0].Metrics[0].Verdict != VerdictRegressed {
		t.Error("20% regression must clear the 15% default band")
	}
}

// TestGateSchemaMismatch: structural divergence must be a loud error,
// never a vacuous pass.
func TestGateSchemaMismatch(t *testing.T) {
	gc := GateConfig{}
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})

	// schema_version drift
	cur := report("x", ReportSchemaVersion+1, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	if _, err := Compare(base, cur, gc); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("schema_version mismatch: err = %v", err)
	}

	// experiment mismatch
	if _, err := Compare(base, report("y", ReportSchemaVersion, nil), gc); err == nil {
		t.Error("experiment mismatch accepted")
	}

	// baseline metric missing from current run
	cur = report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:renamed].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	if _, err := Compare(base, cur, gc); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing metric: err = %v", err)
	}

	// config drift (e.g. the experiment switched graphs)
	cur = report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	cur.Cells[0].Config = map[string]string{"graph": "TW"}
	if _, err := Compare(base, cur, gc); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("config drift: err = %v", err)
	}

	// baseline cell missing from current run
	cur = report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	cur.Cells[0].Params = map[string]string{"steps": "8"}
	if _, err := Compare(base, cur, gc); err == nil || !strings.Contains(err.Error(), "cell") {
		t.Errorf("missing cell: err = %v", err)
	}
}

// TestGateNewMetricReported: a metric with no baseline is reported, not
// failed — the next intentional refresh baselines it.
func TestGateNewMetricReported(t *testing.T) {
	gc := GateConfig{}
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	cur := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step":  {Mean: 50, Std: 1, N: 3},
		"variants[0:a].ns_per_fancy": {Mean: 9, Std: 1, N: 3},
	})
	res, err := Compare(base, cur, gc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions() != 0 {
		t.Errorf("new metric counted as regression")
	}
	if len(res.Cells[0].NewMetrics) != 1 || res.Cells[0].NewMetrics[0] != "variants[0:a].ns_per_fancy" {
		t.Errorf("new metrics = %v", res.Cells[0].NewMetrics)
	}
}

// TestRenderMentionsRegression: the human-facing report must name the
// regressed metric with its numbers.
func TestRenderMentionsRegression(t *testing.T) {
	gc := GateConfig{}
	base := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3},
	})
	cur := report("x", ReportSchemaVersion, map[string]Stat{
		"variants[0:a].ns_per_step": {Mean: 80, Std: 1, N: 3},
	})
	res, err := Compare(base, cur, gc)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"REGRESSED", "variants[0:a].ns_per_step", "+60.0%", "lower-is-better"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestCachesFrom reads a fake cpu0 cache tree: complete entries in
// directory order, missing files omitted from their entry, an entry with
// no readable file dropped, and a missing tree read as no caches.
func TestCachesFrom(t *testing.T) {
	dir := t.TempDir()
	write := func(index, name, body string) {
		t.Helper()
		d := filepath.Join(dir, index)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, name), []byte(body+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("index0", "level", "1")
	write("index0", "type", "Data")
	write("index0", "size", "48K")
	write("index1", "level", "3")
	write("index1", "size", "307200K")
	write("index2", "shared_cpu_list", "0-1")
	got := cachesFrom(dir)
	want := []Cache{{Level: 1, Type: "Data", Size: "48K"}, {Level: 3, Size: "307200K"}}
	if !slices.Equal(got, want) {
		t.Errorf("cachesFrom = %+v, want %+v", got, want)
	}
	if got := cachesFrom(filepath.Join(dir, "absent")); got != nil {
		t.Errorf("missing tree read as %+v, want nil", got)
	}
}

// TestGateHostDriftNotes: differing caches are a note beside the CPU
// note, never a failure, and a side without caches notes nothing.
func TestGateHostDriftNotes(t *testing.T) {
	stats := map[string]Stat{"variants[0:a].ns_per_step": {Mean: 50, Std: 1, N: 3}}
	l3 := func(size string) []Cache { return []Cache{{Level: 3, Type: "Unified", Size: size}} }
	for _, c := range []struct {
		name      string
		base, cur Host
		want      []string // substrings of the note; none means no note
	}{
		{"same", Host{CPUs: 2, Caches: l3("32M")}, Host{CPUs: 2, Caches: l3("32M")}, nil},
		{"caches", Host{CPUs: 2, Caches: l3("32M")}, Host{CPUs: 2, Caches: l3("300M")}, []string{"caches", "32M", "300M"}},
		{"cpus and caches", Host{CPUs: 1, Caches: l3("32M")}, Host{CPUs: 2, Caches: l3("300M")}, []string{"×1", "300M"}},
		{"no baseline caches", Host{CPUs: 2}, Host{CPUs: 2, Caches: l3("300M")}, nil},
	} {
		base, cur := report("x", ReportSchemaVersion, stats), report("x", ReportSchemaVersion, stats)
		base.Host, cur.Host = c.base, c.cur
		res, err := Compare(base, cur, GateConfig{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Regressions() != 0 {
			t.Errorf("%s: host drift failed the gate", c.name)
		}
		if (len(c.want) == 0) != (res.HostDrift == "") {
			t.Errorf("%s: HostDrift = %q, want a note: %v", c.name, res.HostDrift, len(c.want) > 0)
		}
		for _, w := range c.want {
			if !strings.Contains(res.HostDrift, w) {
				t.Errorf("%s: HostDrift = %q, want it to hold %q", c.name, res.HostDrift, w)
			}
		}
	}
}
