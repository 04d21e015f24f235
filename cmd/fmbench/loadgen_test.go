package main

import (
	"math"
	"testing"
	"time"
)

// TestTallyLoad pins the served/shed/failed classification, the
// nearest-rank percentile indices and the goodput arithmetic on
// hand-built observations.
func TestTallyLoad(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// 100 served requests with latencies 1..100 ms, listed in reverse so
	// the tally has to sort: p50 is index 50 (51 ms), p99 index 99 (100 ms).
	var hundred []loadObs
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, loadObs{status: 200, walkerSteps: 10, latency: ms(i)})
	}
	cases := []struct {
		name    string
		results []loadObs
		wall    time.Duration
		want    loadStats
	}{
		{
			name: "status classes",
			results: []loadObs{
				{status: 200, walkerSteps: 8 * 4, latency: ms(3)},
				{status: 503, walkerSteps: 32 * 4, latency: ms(1)},
				{status: 404, walkerSteps: 8 * 4, latency: ms(1)},
				{status: -1, walkerSteps: 128 * 4, latency: ms(1)},
			},
			wall: 2 * time.Second,
			want: loadStats{Served: 1, Shed: 1, Failed: 2, ReqPerSec: 0.5, Goodput: 16, P50MS: 3, P99MS: 3},
		},
		{
			name: "nearest-rank percentiles of three",
			results: []loadObs{
				{status: 200, walkerSteps: 1, latency: ms(30)},
				{status: 200, walkerSteps: 2, latency: ms(10)},
				{status: 200, walkerSteps: 3, latency: ms(20)},
			},
			wall: time.Second,
			// len/2 = 1 → 20 ms; len*99/100 = 2 → 30 ms.
			want: loadStats{Served: 3, ReqPerSec: 3, Goodput: 6, P50MS: 20, P99MS: 30},
		},
		{
			name:    "nearest-rank percentiles of one hundred",
			results: hundred,
			wall:    4 * time.Second,
			want:    loadStats{Served: 100, ReqPerSec: 25, Goodput: 250, P50MS: 51, P99MS: 100},
		},
		{
			name: "nothing served",
			results: []loadObs{
				{status: 503, walkerSteps: 8, latency: ms(1)},
				{status: 500, walkerSteps: 8, latency: ms(1)},
			},
			wall: time.Second,
			want: loadStats{Shed: 1, Failed: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := tallyLoad(c.results, c.wall); got != c.want {
				t.Errorf("tallyLoad = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestFoldLoad pins the repeat fold: counts are rounded per-repeat
// means, rates and p50 plain means, goodput and p99 carry the
// population standard deviation.
func TestFoldLoad(t *testing.T) {
	runs := []loadStats{
		{Served: 10, Shed: 1, Failed: 0, ReqPerSec: 100, Goodput: 1000, P50MS: 2, P99MS: 10},
		{Served: 11, Shed: 2, Failed: 0, ReqPerSec: 110, Goodput: 3000, P50MS: 4, P99MS: 30},
		{Served: 11, Shed: 2, Failed: 1, ReqPerSec: 120, Goodput: 2000, P50MS: 6, P99MS: 20},
	}
	got := foldLoad(runs)
	// Served mean 10.67 → 11, shed 1.67 → 2, failed 0.33 → 0.
	if got.Served != 11 || got.Shed != 2 || got.Failed != 0 {
		t.Errorf("counts = %d/%d/%d, want 11/2/0", got.Served, got.Shed, got.Failed)
	}
	// Population std of {1,2,3}·k is k·sqrt(2/3).
	pstd := math.Sqrt(2.0 / 3.0)
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"served_req_per_sec", got.ReqPerSec, 110},
		{"goodput", got.Goodput, 2000},
		{"goodput_std", got.GoodputStd, 1000 * pstd},
		{"served_p50_ms", got.P50MS, 4},
		{"served_p99_ms", got.P99MS, 20},
		{"p99_std_ms", got.P99StdMS, 10 * pstd},
	} {
		if math.Abs(f.got-f.want) > 1e-9*math.Max(1, math.Abs(f.want)) {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	// A single repeat folds to itself with zero spread.
	if one := foldLoad(runs[:1]); one != runs[0] {
		t.Errorf("fold of one repeat = %+v, want %+v", one, runs[0])
	}
}
