package core

import (
	"context"

	"flashmob/internal/graph"
)

// psState holds one PS partition's pre-sampled edge buffers (§4.2): buf
// packs d(v) pre-drawn targets per vertex at the vertex's own CSR edge
// offset (rebased to the partition), remaining counts the unconsumed
// samples. The buffers are consumed and refilled as the walk progresses,
// which is exactly why they are per-context state: two concurrent runs
// sharing one buffer would interleave their consumption and destroy both
// determinism and the refill accounting. A session or cohort slot
// allocates its set on its first plan-template bind and resets it to
// empty on every later one; a slot that only ever binds the sparse
// template holds none.
type psState struct {
	start     graph.VID
	base      uint64
	buf       []graph.VID
	remaining []uint32
}

// Session owns the mutable state of one run on an immutable Engine build:
// the primary sampling slot (PS buffers and kernel table for the engine's
// own spec), the cohort slots of mixed runs and steppers, the sample task
// and its work-item list, the per-worker scratches, and — when metrics
// are on — a per-session registry whose snapshot becomes that run's
// Result.Report and which folds into the engine aggregate on Close.
//
// A Session is single-goroutine: one Run at a time per session. Engine
// concurrency comes from multiple sessions — NewSession is safe to call
// from concurrent goroutines and sessions interleave their stage phases
// on the engine's shared worker pool.
type Session struct {
	e   *Engine
	ctx context.Context

	// primary is the slot every solo run samples through: the engine's
	// spec bound, per run, to the template its episode size selects.
	// Mixed runs and steppers use the cohort slots below instead.
	primary cohortState

	// cohorts holds pooled per-cohort state for RunMixed and steppers
	// (PS buffers and kernel tables, one entry per cohort slot), grown on
	// demand and reused across the session's runs.
	cohorts []*cohortState

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

	// m is the session's metric set (nil unless Config.Metrics): a fresh
	// registry per acquisition sharing the engine's pprof label contexts.
	m *engineMetrics

	closed bool
}

// NewSession acquires a run handle on the engine. A nil ctx means
// context.Background(); a canceled ctx aborts the session's Run between
// pipeline steps with the context's error. Sessions are pooled: Close
// returns the PS buffers and scratches for reuse. Returns ErrClosed after
// Engine.Close.
func (e *Engine) NewSession(ctx context.Context) (*Session, error) {
	return e.NewSessionOverlay(ctx, nil)
}

// NewSessionOverlay is NewSession with a frozen delta overlay bound to the
// session: every run samples partitions the overlay touches over base ∪
// delta adjacency, all other partitions through the unmodified kernels.
// A non-empty overlay restricts the session's runs to first-order
// history-free specs (see Overlay). A nil overlay is exactly NewSession.
func (e *Engine) NewSessionOverlay(ctx context.Context, ov *Overlay) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.active.Add(1)
	e.mu.Unlock()
	s, _ := e.sessions.Get().(*Session)
	if s == nil {
		s = e.newSessionState()
	}
	s.ov = ov
	s.ctx = ctx
	s.closed = false
	if e.cfg.Metrics {
		s.m = newEngineMetrics(e, e.metrics)
		s.sample.m = s.m
	}
	return s, nil
}

// newSessionState allocates a session's per-worker scratches. PS buffers
// are not allocated here: each slot allocates its own on its first
// plan-template bind (cohortState.bind).
func (e *Engine) newSessionState() *Session {
	s := &Session{e: e}
	s.scratches = make([]*sampleScratch, e.pool.Workers())
	for i := range s.scratches {
		s.scratches[i] = newSampleScratch()
	}
	s.sample.s = s
	return s
}

// Close releases the session: its metrics fold into the engine-lifetime
// aggregate, its buffers return to the engine's session pool, and the
// engine's Close (if waiting) is unblocked. Idempotent. A held Session
// must be Closed before Engine.Close can return.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	e := s.e
	if s.m != nil {
		s.m.reg.FoldInto(e.metrics.reg)
		s.m = nil
		s.sample.m = nil
	}
	s.ctx = nil
	e.sessions.Put(s)
	e.active.Done()
}
