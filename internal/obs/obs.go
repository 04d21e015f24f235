// Package obs is the engine's observability layer: a metrics registry of
// atomic counters, gauges, fixed-bucket latency histograms, and indexed
// counter vectors, designed so that recording on the walk hot path costs
// one atomic add and allocates nothing.
//
// The paper's own evaluation method is counter-driven (Fig 1b's per-step
// miss counts, Table 5's profiling case study, Fig 10b's walker-step
// weighting); this package makes the same style of accounting available
// on every production run instead of only inside the simulator. Engines
// create a Registry at build time, resolve each metric to a concrete
// pointer once, and update those pointers directly — the registry is
// never consulted during a walk. Snapshot freezes everything into a
// Report, a plain serializable value with a stable field order (metrics
// sort by name) whose JSON form is documented in docs/OBSERVABILITY.md.
//
// Metrics collection is opt-in per engine (core.Config.Metrics); when it
// is off the engines hold a nil metrics struct and every recording site
// compiles down to a nil check and skip.
package obs

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Desc names and documents one metric. Stage ties the metric to the
// pipeline stage that records it ("sample", "shuffle", "pool", "ooc",
// "run"); Unit is the value's unit ("ns", "bytes", "walkers", "count").
type Desc struct {
	// Name is the registry-unique metric name (snake_case, prefixed by
	// the recording subsystem: core_, pool_, ooc_).
	Name string `json:"name"`
	// Unit is the unit of recorded values.
	Unit string `json:"unit"`
	// Stage is the pipeline stage that records the metric.
	Stage string `json:"stage"`
	// Help is a one-line description of what the metric counts and when
	// it is recorded.
	Help string `json:"help"`
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go down).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the histogram bucket count: bucket i holds observations
// whose value has bit length i, i.e. bucket 0 is exactly 0 and bucket
// i ≥ 1 spans [2^(i-1), 2^i - 1]. 65 buckets cover all of uint64.
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram. Observe costs three
// atomic adds and never allocates; the bucket index is the value's bit
// length, so no bound search is needed.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	c := h.Count()
	if c == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(c)
}

// CounterVec is a fixed-length vector of counters sharing one name —
// the carrier for per-partition, per-worker, and per-kernel-kind
// accounting, where one metric object per index would bloat the report.
// Optional labels name the indices (e.g. kernel kinds); without labels
// the index itself is the identity (partition or worker number).
type CounterVec struct {
	vals   []atomic.Uint64
	labels []string
}

// Add increments slot i by n.
func (v *CounterVec) Add(i int, n uint64) { v.vals[i].Add(n) }

// Value returns slot i's count.
func (v *CounterVec) Value(i int) uint64 { return v.vals[i].Load() }

// Len returns the vector length.
func (v *CounterVec) Len() int { return len(v.vals) }

// Registry owns a set of named metrics. Registration happens once at
// engine build time under a lock; the returned pointers are then updated
// directly, so a Registry is never touched on the hot path. Names must be
// unique — a duplicate registration panics, as it is a programming error.
// Each section is kept sorted by name as metrics register, so snapshots
// need no sort and two registries built with the same metric set line
// up entry for entry.
type Registry struct {
	mu       sync.Mutex
	names    map[string]bool
	counters []regEntry[*Counter]
	gauges   []regEntry[*Gauge]
	hists    []regEntry[*Histogram]
	vecs     []regEntry[*CounterVec]
}

// regEntry pairs a metric with its description.
type regEntry[T any] struct {
	desc Desc
	m    T
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register reserves d's name, panicking on duplicates, and inserts m into
// the section at its name's sorted position.
func register[T any](r *Registry, section *[]regEntry[T], d Desc, m T) T {
	if d.Name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[d.Name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", d.Name))
	}
	r.names[d.Name] = true
	i, _ := slices.BinarySearchFunc(*section, d.Name, func(e regEntry[T], name string) int {
		return strings.Compare(e.desc.Name, name)
	})
	*section = slices.Insert(*section, i, regEntry[T]{d, m})
	return m
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(d Desc) *Counter {
	return register(r, &r.counters, d, &Counter{})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(d Desc) *Gauge {
	return register(r, &r.gauges, d, &Gauge{})
}

// Histogram registers and returns a new histogram.
func (r *Registry) Histogram(d Desc) *Histogram {
	return register(r, &r.hists, d, &Histogram{})
}

// CounterVec registers and returns a counter vector of length n with
// optional index labels (nil, or exactly n strings).
func (r *Registry) CounterVec(d Desc, n int, labels []string) *CounterVec {
	if labels != nil && len(labels) != n {
		panic(fmt.Sprintf("obs: vector %q has %d labels for %d slots", d.Name, len(labels), n))
	}
	return register(r, &r.vecs, d, &CounterVec{vals: make([]atomic.Uint64, n), labels: labels})
}

// Snapshot freezes every registered metric into a Report. Metrics are
// sorted by name within each section, so two snapshots of registries
// built the same way serialize identically apart from the values.
func (r *Registry) Snapshot() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{SchemaVersion: ReportSchemaVersion}
	for _, e := range r.counters {
		rep.Counters = append(rep.Counters, CounterSnap{Desc: e.desc, Value: e.m.Value()})
	}
	for _, e := range r.gauges {
		rep.Gauges = append(rep.Gauges, GaugeSnap{Desc: e.desc, Value: e.m.Value()})
	}
	for _, e := range r.hists {
		rep.Histograms = append(rep.Histograms, snapHistogram(e.desc, e.m))
	}
	for _, e := range r.vecs {
		vals := make([]uint64, e.m.Len())
		for i := range vals {
			vals[i] = e.m.Value(i)
		}
		rep.Vectors = append(rep.Vectors, VecSnap{Desc: e.desc, Labels: e.m.labels, Values: vals})
	}
	return rep
}

// DrainInto moves every metric recorded on r into the same-named metric
// of dst and leaves r's zeroed: counters and vector slots add, gauges
// add their reading, histograms merge count, sum, and buckets. Only
// nonzero values are touched, each swapped out of r, so a value recorded
// concurrently is moved by this call or stays for the next. This is the
// session-to-aggregate path — a per-session registry drains its totals
// into an engine-lifetime registry built with the same metric set when
// the session closes, and is reused as it stands, with no rebuild and no
// reset pass. Metrics with no same-named counterpart in dst keep their
// values; vectors move the shorter of the two lengths. Two registries
// must not DrainInto each other concurrently in opposite directions.
func (r *Registry) DrainInto(dst *Registry) {
	if dst == nil || dst == r {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	foldSection(r.counters, dst.counters, func(src, d *Counter) {
		if src.v.Load() != 0 {
			d.Add(src.v.Swap(0))
		}
	})
	foldSection(r.gauges, dst.gauges, func(src, d *Gauge) {
		if src.v.Load() != 0 {
			d.Add(src.v.Swap(0))
		}
	})
	foldSection(r.hists, dst.hists, func(src, d *Histogram) {
		if src.count.Load() == 0 {
			return
		}
		d.count.Add(src.count.Swap(0))
		d.sum.Add(src.sum.Swap(0))
		for i := range src.buckets {
			if src.buckets[i].Load() != 0 {
				d.buckets[i].Add(src.buckets[i].Swap(0))
			}
		}
	})
	foldSection(r.vecs, dst.vecs, func(src, d *CounterVec) {
		n := min(len(src.vals), len(d.vals))
		for i := range src.vals[:n] {
			if src.vals[i].Load() != 0 {
				d.vals[i].Add(src.vals[i].Swap(0))
			}
		}
	})
}

// foldSection applies fold to every metric of src and its same-named
// counterpart in dst. Both sections are name-sorted, so one merge walk
// pairs them.
func foldSection[T any](src, dst []regEntry[T], fold func(src, dst T)) {
	j := 0
	for _, e := range src {
		for j < len(dst) && dst[j].desc.Name < e.desc.Name {
			j++
		}
		if j == len(dst) {
			return
		}
		if dst[j].desc.Name == e.desc.Name {
			fold(e.m, dst[j].m)
		}
	}
}

// snapHistogram freezes one histogram, keeping only non-empty buckets.
func snapHistogram(d Desc, h *Histogram) HistSnap {
	s := HistSnap{Desc: d, Count: h.Count(), Sum: h.Sum()}
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, BucketSnap{Le: bucketUpper(i), Count: c})
	}
	return s
}

// bucketUpper returns bucket i's inclusive upper bound: 0 for the zero
// bucket, 2^i - 1 otherwise (saturating at MaxUint64).
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}
