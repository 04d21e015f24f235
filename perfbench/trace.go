package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// layers are the span-name prefixes the traced run attributes self time
// to: the repository's modules the benchmark calls into, plus "bench" for
// the benchmark's own work (set-up glue and output checks).
var layers = []string{"graph", "part", "core", "walk", "flashmob", "serve", "dyn", "bench"}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the span that caused it (0 = root); Req ties the
// spans of one request or walk job together.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so plain runs pay one nil check
// per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	lastID uint64
	spans  []span
}

// newTracer starts a tracer whose span times are offsets from now.
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span ID, so a parent can hand its ID to children
// recorded before the parent itself ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// add records a span under a reserved ID.
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record reserves an ID and records a finished span in one call.
func (t *tracer) record(parent, req uint64, name string, start, end time.Time) uint64 {
	id := t.newID()
	t.add(id, parent, req, name, start, end)
	return id
}

// selfNS returns each layer's self time: every span's duration minus the
// part of its interval that its children cover, summed by the span
// name's layer prefix.
func (t *tracer) selfNS() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfShares turns selfNS into each layer's share of all self time, one
// "self_share.<layer>" metric per known layer.
func (t *tracer) selfShares(m metrics) {
	self := t.selfNS()
	var total int64
	for _, v := range self {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		m.set("self_share."+l, share, "share")
	}
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
