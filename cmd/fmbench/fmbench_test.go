package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashmob/internal/perfgate"
)

// tinyConfig makes every experiment finish in seconds.
func tinyConfig() benchConfig {
	return benchConfig{
		TargetV:   8000,
		Steps:     4,
		Seed:      7,
		Workers:   2,
		GeomScale: 64,
		MinSteps:  5_000, ProfMaxEdges: 1 << 20,
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Some experiments write BENCH_*.json into the working directory; the
	// canonical location is the repo root (where make bench-* runs), not
	// this package. Run from a scratch dir so test runs can't litter
	// cmd/fmbench with stray artifacts.
	t.Chdir(t.TempDir())
	cfg := tinyConfig()
	// The serving sweep's variants and load points do not depend on
	// size, so its tiny-config report must flatten to exactly the keys
	// of the committed grid report's first cell.
	schemaPinned := map[string]bool{"serve": true}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.name)
			}
			if schemaPinned[e.name] {
				checkReportSchema(t, e.name, filepath.Join(root, "BENCH_"+e.name+".json"))
			}
		})
	}
}

// checkReportSchema flattens the raw BENCH_<exp>.json an experiment just
// wrote and requires its metric and config key sets to equal those of
// cells[0] in the committed grid report at committed.
func checkReportSchema(t *testing.T, exp, committed string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(benchOutDir, "BENCH_"+exp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := perfgate.FlattenJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := perfgate.ReadGridReport(committed)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) == 0 {
		t.Fatalf("%s: no cells", committed)
	}
	want := grid.Cells[0]
	sameKeys(t, "metric", run.Metrics, want.Metrics)
	sameKeys(t, "config", run.Config, want.Config)
}

// sameKeys reports every key present in one map but not the other.
func sameKeys[A, B any](t *testing.T, kind string, got map[string]A, want map[string]B) {
	t.Helper()
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s key %q not in the committed report", kind, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s key %q missing from the report", kind, k)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short")
	}
	// The headline result: on every graph FlashMob must beat KnightKing,
	// which must beat GraphVite. The ordering only exists when the graph
	// is DRAM-resident (cache-resident graphs are fast under any engine),
	// so force the CSR well past any plausible LLC.
	cfg := tinyConfig()
	cfg.Steps = 6
	cfg.MinCSR = 48 << 20
	for _, name := range []string{"YT", "FS"} {
		g, err := presetGraphSized(name, cfg, cfg.MinCSR)
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock ordering is noisy when the test binary runs the rest
		// of the suite in parallel: accept if any of three attempts shows
		// the expected strict ordering.
		ok := false
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			gv, err := timeGraphVite(g, deepWalk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			kk, err := timeKnightKing(g, deepWalk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fm, err := timeFlashMob(g, deepWalk(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s attempt %d: GraphVite %.1f, KnightKing %.1f, FlashMob %.1f ns/step",
				name, attempt, gv, kk, fm)
			ok = fm < kk && kk < gv
		}
		if !ok {
			t.Errorf("%s: expected FlashMob < KnightKing < GraphVite in 3 attempts", name)
		}
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := findExperiment("fig8a"); !ok {
		t.Error("fig8a missing")
	}
	if _, ok := findExperiment("nope"); ok {
		t.Error("bogus experiment found")
	}
}

func TestTable2OutputMentionsAllGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var buf bytes.Buffer
	if err := expTable2(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range presetNames {
		if !strings.Contains(out, "--- "+name) {
			t.Errorf("table2 output missing %s", name)
		}
	}
}
