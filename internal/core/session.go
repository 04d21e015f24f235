package core

import (
	"context"
	"fmt"

	"flashmob/internal/graph"
	"flashmob/internal/walk"
)

// psState holds one PS partition's pre-sampled edge buffers (§4.2): buf
// packs d(v) pre-drawn targets per vertex at the vertex's own CSR edge
// offset (rebased to the partition), remaining counts the unconsumed
// samples. The buffers are consumed and refilled as the walk progresses,
// which is exactly why they are per-context state: two concurrent runs
// sharing one buffer would interleave their consumption and destroy both
// determinism and the refill accounting. A cohort slot allocates its
// set on its first plan-template bind and resets it to empty on every
// later one; a slot that only ever binds the sparse template holds none.
type psState struct {
	start     graph.VID
	base      uint64
	buf       []graph.VID
	remaining []uint32
}

// Session owns the mutable state of runs on an immutable Engine build,
// and is the engine's one sample→shuffle stepper: the cohort slots (PS
// buffers and kernel tables, slot 0 serving solo runs), the shuffler and
// shuffled intermediates, the walker arrays the run driver steps when it
// records no history, the
// per-step cohort layout, the sample task and per-worker scratches, the
// per-run counters, and — when metrics are on — a per-session registry
// whose snapshot becomes a run's Report and which drains into the
// engine aggregate on Close.
//
// The step state is built on first use and grown in place to the
// session's high-water walker, channel and cohort counts; it is never
// rebuilt per run, and pooled sessions carry it across acquisitions.
// Per-run counters (VPSteps, stage times) reset at every run start and
// at acquisition, and acquisition unbinds every cohort slot.
//
// A Session is single-goroutine: one Run or Step at a time per session.
// Engine concurrency comes from multiple sessions — NewSession is safe
// to call from concurrent goroutines and sessions interleave their stage
// phases on the engine's shared worker pool.
type Session struct {
	e   *Engine
	ctx context.Context

	// cohorts holds the sampling slots (PS buffers and kernel tables),
	// grown on demand and reused across the session's runs; cxs[k] and
	// prefixes[k] are slot k's sampling context and its current step's
	// folded seed prefix, in the walker-array order sampleTask.run takes.
	cohorts  []*cohortState
	cxs      []*cohortCtx
	prefixes []uint64

	// shuffler, sw and auxSW are the step's shuffle and its shuffled
	// intermediates; views holds the per-step channel views of auxSW.
	shuffler *walk.Shuffler
	sw       []graph.VID
	auxSW    [][]graph.VID
	views    [][]graph.VID
	// w and wNext are the walker arrays of runs that record no history
	// (a recording run steps through its history rows instead), auxW and
	// auxNext every run's aux channels, and offs the cohort segment
	// bounds; in and out hold the driver's per-step channel views.
	w, wNext      []graph.VID
	auxW, auxNext [][]graph.VID
	offs          []uint64
	in, out       [][]graph.VID
	// lay locates several cohorts' walkers in each step's partitions.
	lay cohortLayout

	// vpSteps and times are the per-run counters: walker-steps per
	// partition and the stage split, accumulated by every step.
	vpSteps []uint64
	times   StageTimes

	// sample is the session's pool task for the sample stage, re-armed per
	// step; items is its reusable work-item list.
	sample sampleTask

	// scratches holds one reusable scratch per pool worker (RNG + batched
	// second-order buffers), stable across the session's episodes.
	scratches []*sampleScratch

	// ov is the session's delta overlay (nil for plain sessions): set at
	// acquisition by NewSessionOverlay and propagated into every sampling
	// context the session's runs bind, never mutated mid-run.
	ov *Overlay

	// m is the session's metric set (nil unless Config.Metrics), sharing
	// the engine's pprof label contexts: built on the session's first
	// acquisition and reused by every later one, since Close drains it
	// into the engine aggregate and leaves it zeroed.
	m *engineMetrics

	closed bool
}

// NewSession acquires a run handle on the engine. A nil ctx means
// context.Background(); a canceled ctx aborts the session's Run between
// pipeline steps with the context's error. Sessions are pooled: Close
// parks the session, with its PS buffers and step state, for the next
// acquisition. Returns ErrClosed after Engine.Close.
func (e *Engine) NewSession(ctx context.Context) (*Session, error) {
	return e.NewSessionOverlay(ctx, nil)
}

// NewSessionOverlay is NewSession with a frozen delta overlay bound to the
// session: every run samples partitions the overlay touches over base ∪
// delta adjacency, all other partitions through the unmodified kernels.
// A non-empty overlay restricts the session's runs to first-order
// history-free specs (see Overlay). A nil overlay is exactly NewSession.
func (e *Engine) NewSessionOverlay(ctx context.Context, ov *Overlay) (*Session, error) {
	if ov != nil && e.src != nil {
		return nil, fmt.Errorf("core: a streamed engine takes no overlay")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.active.Add(1)
	var s *Session
	if n := len(e.idle); n > 0 {
		s, e.idle = e.idle[n-1], e.idle[:n-1]
	}
	e.mu.Unlock()
	if s == nil {
		s = e.newSessionState()
	}
	s.ov = ov
	s.ctx = ctx
	s.closed = false
	if s.m == nil && e.cfg.Metrics {
		s.m = newEngineMetrics(e, e.metrics)
		s.sample.m = s.m
	}
	for _, cs := range s.cohorts {
		cs.cx = cohortCtx{}
	}
	s.resetCounters()
	return s, nil
}

// newSessionState allocates a session's per-worker scratches and
// per-partition counters. PS buffers are not allocated here: each slot
// allocates its own on its first plan-template bind (cohortState.bind),
// and the step state on the session's first step.
func (e *Engine) newSessionState() *Session {
	s := &Session{e: e, vpSteps: make([]uint64, e.plan.NumVPs())}
	s.scratches = make([]*sampleScratch, e.pool.Workers())
	for i := range s.scratches {
		s.scratches[i] = newSampleScratch()
	}
	s.sample.s = s
	return s
}

// Close releases the session: its metrics drain into the engine-lifetime
// aggregate, it parks on the engine's idle list for reuse, and the
// engine's Close (if waiting) is unblocked. Idempotent. A held Session
// must be Closed before Engine.Close can return.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	e := s.e
	if s.m != nil {
		s.m.reg.DrainInto(e.metrics.reg)
	}
	s.ctx = nil
	e.mu.Lock()
	e.idle = append(e.idle, s)
	e.mu.Unlock()
	e.active.Done()
}
