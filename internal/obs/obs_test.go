package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers every metric kind from many goroutines
// and checks the totals — the -race leg's data-race probe for the whole
// recording surface.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "c", Unit: "count", Stage: "test"})
	g := r.Gauge(Desc{Name: "g", Unit: "count", Stage: "test"})
	h := r.Histogram(Desc{Name: "h", Unit: "ns", Stage: "test"})
	v := r.CounterVec(Desc{Name: "v", Unit: "count", Stage: "test"}, 8, nil)

	const workers = 16
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				g.Add(1)
				h.Observe(uint64(i))
				v.Add(i%8, 1)
			}
		}(w)
	}
	wg.Wait()

	if got, want := c.Value(), uint64(2*workers*perWorker); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), int64(workers*perWorker); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	wantSum := uint64(workers) * uint64(perWorker*(perWorker-1)/2)
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
	var vecTotal uint64
	for i := 0; i < v.Len(); i++ {
		vecTotal += v.Value(i)
	}
	if want := uint64(workers * perWorker); vecTotal != want {
		t.Errorf("vector total = %d, want %d", vecTotal, want)
	}
	// Bucket counts must cover every observation exactly once.
	snap := r.Snapshot()
	hs, ok := snap.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != hs.Count {
		t.Errorf("bucket counts sum to %d, histogram count %d", bucketTotal, hs.Count)
	}
}

// TestZeroAllocHotPath asserts the core recording operations allocate
// nothing — the property that lets engines record inside the sample loop.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "c", Unit: "count", Stage: "test"})
	g := r.Gauge(Desc{Name: "g", Unit: "count", Stage: "test"})
	h := r.Histogram(Desc{Name: "h", Unit: "ns", Stage: "test"})
	v := r.CounterVec(Desc{Name: "v", Unit: "count", Stage: "test"}, 4, nil)

	for name, fn := range map[string]func(){
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(7) },
		"Histogram.Observe": func() { h.Observe(12345) },
		"CounterVec.Add":    func() { v.Add(2, 1) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestHistogramBuckets pins the power-of-two bucket boundaries.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "h", Unit: "ns", Stage: "test"})
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	snap, _ := r.Snapshot().Histogram("h")
	got := map[uint64]uint64{}
	for _, b := range snap.Buckets {
		got[b.Le] = b.Count
	}
	want := map[uint64]uint64{
		0:    1, // 0
		1:    1, // 1
		3:    2, // 2, 3
		7:    2, // 4, 7
		15:   1, // 8
		1023: 1, // 1023
		2047: 1, // 1024
	}
	for le, n := range want {
		if got[le] != n {
			t.Errorf("bucket le=%d has %d observations, want %d (all: %v)", le, got[le], n, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d non-empty buckets, want %d: %v", len(got), len(want), got)
	}
}

// TestSnapshotStableEncoding verifies the stable-JSON property: two
// snapshots of registries built the same way (regardless of registration
// order vs name order) encode byte-identically when values match.
func TestSnapshotStableEncoding(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(Desc{Name: n, Unit: "count", Stage: "test"}).Add(5)
		}
		r.CounterVec(Desc{Name: "vec", Unit: "count", Stage: "test"}, 2, []string{"a", "b"}).Add(1, 9)
		return r
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"}) // different registration order
	var bufA, bufB bytes.Buffer
	if err := a.Snapshot().WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	if bufA.Len() == 0 {
		t.Fatal("empty encoding")
	}
}

// TestDrainInto pins the session-to-aggregate move: every metric the two
// registries share, registered in different orders, lands in dst by name
// and is zero in the source afterwards, so a second drain moves nothing;
// a metric dst lacks keeps its value, and a vector moves the shorter
// length.
func TestDrainInto(t *testing.T) {
	d := func(name string) Desc { return Desc{Name: name, Unit: "count", Stage: "test"} }
	src, dst := NewRegistry(), NewRegistry()
	sc, sg, sh := src.Counter(d("c")), src.Gauge(d("g")), src.Histogram(d("h"))
	sv, only := src.CounterVec(d("v"), 3, nil), src.Counter(d("only-src"))
	dv, dh, dg, dc := dst.CounterVec(d("v"), 2, nil), dst.Histogram(d("h")), dst.Gauge(d("g")), dst.Counter(d("c"))
	dc.Add(1)
	sc.Add(4)
	sg.Set(-3)
	sh.Observe(5)
	sh.Observe(0)
	sv.Add(0, 7)
	sv.Add(2, 9)
	only.Add(2)
	for range 2 {
		src.DrainInto(dst)
	}
	if dc.Value() != 5 || dg.Value() != -3 || dh.Count() != 2 || dh.Sum() != 5 || dv.Value(0) != 7 || dv.Value(1) != 0 {
		t.Errorf("dst after drain: counter %d gauge %d hist %d/%d vec %d,%d; want 5 -3 2/5 7,0",
			dc.Value(), dg.Value(), dh.Count(), dh.Sum(), dv.Value(0), dv.Value(1))
	}
	if sc.Value() != 0 || sg.Value() != 0 || sh.Count() != 0 || sh.Sum() != 0 || sv.Value(0) != 0 {
		t.Error("drained source metrics are not zero")
	}
	if sv.Value(2) != 9 || only.Value() != 2 {
		t.Errorf("cells dst lacks: vec[2] %d, only-src %d; want 9, 2 left in place", sv.Value(2), only.Value())
	}
	if rep := dst.Snapshot(); len(rep.Histograms) != 1 || len(rep.Histograms[0].Buckets) != 2 {
		t.Errorf("drained histogram buckets = %+v, want two", rep.Histograms)
	}
}

// TestDuplicateNamePanics locks the unique-name contract.
func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Name: "dup", Unit: "count", Stage: "test"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge(Desc{Name: "dup", Unit: "count", Stage: "test"})
}

// BenchmarkObserve is the benchmark guard for the recording cost: a
// histogram observation (the most expensive primitive) must stay in the
// few-nanosecond range with zero allocations.
func BenchmarkObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "h", Unit: "ns", Stage: "bench"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

// BenchmarkCounterAdd measures the counter hot path.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "c", Unit: "count", Stage: "bench"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
