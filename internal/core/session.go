package core

import (
	"context"

	"flashmob/internal/graph"
)

// psState holds one PS partition's pre-sampled edge buffers (§4.2): buf
// packs d(v) pre-drawn targets per vertex at the vertex's own CSR edge
// offset (rebased to the partition), remaining counts the unconsumed
// samples. The buffers are consumed and refilled as the walk progresses,
// which is exactly why they are session state: two concurrent runs
// sharing one buffer would interleave their consumption and destroy both
// determinism and the refill accounting.
type psState struct {
	start     graph.VID
	base      uint64
	buf       []graph.VID
	remaining []uint32
}

// Session owns the mutable state of one run on an immutable Engine build:
// the PS buffers, the session's copy of the kernel table (bound to those
// buffers), the sample task and its work-item list, the per-worker
// scratches, and — when metrics are on — a per-session registry whose
// snapshot becomes that run's Result.Report and which folds into the
// engine aggregate on Close.
//
// A Session is single-goroutine: one Run at a time per session. Engine
// concurrency comes from multiple sessions — NewSession is safe to call
// from concurrent goroutines and sessions interleave their stage phases
// on the engine's shared worker pool.
type Session struct {
	e   *Engine
	ctx context.Context

	// ps[i] is partition i's pre-sample state (nil for DS partitions).
	// Fresh on every acquisition: remaining is cleared, so a session's
	// trajectories depend only on (engine seed, episode, step, partition,
	// sub-shard) — bitwise-identical whether runs execute serially on one
	// engine or concurrently on many sessions.
	ps []*psState

	// kern is the session's copy of the engine's kernel table with st
	// bound to the session's psState. Re-copied from the template on every
	// acquisition, so engine-side rebuilds (tests force fallback kernels)
	// are picked up.
	kern []vpKernel

	// cx is the session's primary sampling context: the engine's spec
	// bound to the session's kern/ps above. Every solo run samples through
	// it; mixed runs use per-cohort contexts instead (cohorts below).
	cx cohortCtx

	// cohorts holds pooled per-cohort state for RunMixed (private PS
	// buffers and kernel tables, one entry per cohort slot), grown on
	// demand and reused across the session's mixed runs.
	cohorts []*cohortState

	// sample is the session's pool task for the sample stage, re-armed per
	// step; items is its reusable work-item list.
	sample sampleTask

	// scratches holds one reusable scratch per pool worker (RNG + batched
	// second-order buffers), stable across the session's episodes.
	scratches []*sampleScratch

	// ov is the session's delta overlay (nil for plain sessions): set at
	// acquisition by NewSessionOverlay and propagated into every sampling
	// context the session's runs build, never mutated mid-run.
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
	s.rebind()
	s.ov = ov
	s.cx.ov = ov
	s.ctx = ctx
	s.closed = false
	if e.cfg.Metrics {
		s.m = newEngineMetrics(e, e.metrics)
		s.sample.m = s.m
	}
	return s, nil
}

// newSessionState allocates a session's buffers: PS state per PS
// partition (the dominant cost — one VID per edge of the partition) and
// one scratch per pool worker.
func (e *Engine) newSessionState() *Session {
	s := &Session{
		e:    e,
		ps:   make([]*psState, e.plan.NumVPs()),
		kern: make([]vpKernel, e.plan.NumVPs()),
	}
	for i, vp := range e.plan.VPs {
		if !e.psVP[i] {
			continue
		}
		edges := e.g.Offsets[vp.End] - e.g.Offsets[vp.Start]
		s.ps[i] = &psState{
			start:     vp.Start,
			base:      e.g.Offsets[vp.Start],
			buf:       make([]graph.VID, edges),
			remaining: make([]uint32, vp.End-vp.Start),
		}
	}
	s.scratches = make([]*sampleScratch, e.pool.Workers())
	for i := range s.scratches {
		s.scratches[i] = newSampleScratch()
	}
	s.sample.s = s
	s.cx = cohortCtx{e: e, spec: &e.spec, kern: s.kern, ps: s.ps,
		weighted: e.weighted, class: classifySpec(&e.spec)}
	return s
}

// rebind refreshes the session's kernel table from the engine template
// and resets the PS buffers to empty, making the acquisition
// indistinguishable from a freshly built session.
func (s *Session) rebind() {
	copy(s.kern, s.e.kern)
	for i, st := range s.ps {
		if st == nil {
			continue
		}
		clear(st.remaining)
		s.kern[i].st = st
	}
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
