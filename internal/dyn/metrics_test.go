package dyn

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// TestDynMetricsDocumented holds docs/OBSERVABILITY.md and the dyn_* metric
// set to each other in both directions: every registered metric has a row,
// and every dyn_* name the doc lists is still registered.
func TestDynMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	r := newDynMetrics().reg.Snapshot()
	var registered []string
	for _, c := range r.Counters {
		registered = append(registered, c.Name)
	}
	for _, g := range r.Gauges {
		registered = append(registered, g.Name)
	}
	for _, h := range r.Histograms {
		registered = append(registered, h.Name)
	}
	for _, v := range r.Vectors {
		registered = append(registered, v.Name)
	}

	var documented []string
	for _, m := range regexp.MustCompile("`(dyn_[a-z0-9_]+)`").FindAllSubmatch(doc, -1) {
		documented = append(documented, string(m[1]))
	}
	for _, n := range registered {
		if !slices.Contains(documented, n) {
			t.Errorf("metric %q is registered but not documented in docs/OBSERVABILITY.md", n)
		}
	}
	for _, n := range documented {
		if !slices.Contains(registered, n) {
			t.Errorf("docs/OBSERVABILITY.md lists %q, which newDynMetrics does not register", n)
		}
	}
}
