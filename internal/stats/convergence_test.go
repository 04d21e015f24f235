package stats

import (
	"math"
	"testing"

	"flashmob/internal/graph"
	"flashmob/internal/walk"
)

func TestTVDistance(t *testing.T) {
	d, err := TVDistance([]float64{1, 0}, []float64{0, 1})
	if err != nil || d != 1 {
		t.Errorf("disjoint distributions: d=%v err=%v, want 1", d, err)
	}
	d, err = TVDistance([]float64{2, 2}, []float64{5, 5})
	if err != nil || d != 0 {
		t.Errorf("identical (unnormalized) distributions: d=%v err=%v, want 0", d, err)
	}
	d, err = TVDistance([]float64{3, 1}, []float64{1, 1})
	if err != nil || math.Abs(d-0.25) > 1e-12 {
		t.Errorf("d=%v, want 0.25", d)
	}
	if _, err := TVDistance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TVDistance([]float64{-1, 2}, []float64{1, 0}); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := TVDistance([]float64{0, 0}, []float64{1, 0}); err == nil {
		t.Error("zero mass accepted")
	}
}

func TestStationaryDegree(t *testing.T) {
	res, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}},
		graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pi := StationaryDegree(res.Graph)
	if math.Abs(pi[1]-0.5) > 1e-12 {
		t.Errorf("π(1) = %v, want 0.5", pi[1])
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("π sums to %v", sum)
	}
}

func TestConvergenceSeriesDecreases(t *testing.T) {
	// Synthetic history: start concentrated on vertex 0, end uniform over
	// a 2-vertex "graph" with equal degrees.
	h, err := walk.NewHistory([][]graph.VID{{0, 0, 0, 0}, {0, 0, 0, 1}, {0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	series, err := ConvergenceSeries(h, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !(series[0] > series[1] && series[1] > series[2]) {
		t.Errorf("series not decreasing: %v", series)
	}
	if series[2] != 0 {
		t.Errorf("final distance %v, want 0", series[2])
	}
}

func TestConvergenceSeriesErrors(t *testing.T) {
	empty, err := walk.NewHistory(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConvergenceSeries(empty, []float64{1}); err == nil {
		t.Error("empty history accepted")
	}
	h, err := walk.NewHistory([][]graph.VID{{5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConvergenceSeries(h, []float64{1, 1}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}
