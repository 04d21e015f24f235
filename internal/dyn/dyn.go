// Package dyn layers dynamic-graph support over the immutable FlashMob
// engine: per-build edge append buffers (delta overlays) on top of the
// degree-sorted CSR, published to walkers through epoch snapshots.
//
// The design keeps the engine's cache discipline intact by never mutating a
// build. Ingest buffers edges; Freeze publishes them as a new epoch whose
// sessions sample touched partitions over base ∪ delta through a
// core.Overlay (untouched partitions keep their specialized kernels and
// stay bitwise-identical to the base build); Compact merges the whole
// delta into the base graph (graph.MergeEdges block-copies untouched
// adjacency), builds the merged graph cold — degree re-sort, full MCKP
// plan, engine — and atomically swaps it in. Walks resolve their epoch at
// acquisition and run to completion on it: an in-flight session is never
// invalidated, and superseded epochs retire (their engine closing) once
// their last reference drains.
//
// Determinism: a compacted epoch's trajectories are bitwise-identical to a
// cold build of the same edge set (MergeEdges reproduces Build of the
// union byte for byte, and the build over it is the cold build's own).
// Overlay epochs are deterministic per (epoch, seed) — and identical to
// the base build on partitions without delta — but not equal to a cold
// build of the union, whose re-sort renumbers vertices; compaction is the
// canonicalization point.
package dyn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/profile"
)

// ErrClosed is returned by every System method after Close.
var ErrClosed = errors.New("dyn: system closed")

// Config tunes a dynamic System.
type Config struct {
	// Algorithm is the walk the engine builds are specialized for (default
	// DeepWalk). Weighted algorithms are rejected: overlay sampling is
	// uniform over base ∪ delta, which has no meaning against alias tables.
	Algorithm algo.Spec
	// Workers is the per-build sampling/shuffling thread count (default
	// GOMAXPROCS).
	Workers int
	// Seed drives all engine randomness, for every build.
	Seed uint64
	// Undirected inserts the reverse of every ingested edge, matching the
	// convention of an undirected base graph.
	Undirected bool
	// TargetGroups and MaxBins are the planner's G and P hyper-parameters
	// (defaults 128 and 2048).
	TargetGroups, MaxBins int
	// CompactEvery, when positive, triggers a background compaction after
	// that many freezes. Zero leaves compaction to explicit Compact calls.
	CompactEvery int
	// RecordHistory keeps every W_i array of each walk so paths can be
	// produced.
	RecordHistory bool
	// Metrics enables the dyn_* metric set (see docs/OBSERVABILITY.md).
	Metrics bool
	// Model overrides the partition-cost model of every build; nil takes
	// core.New's default.
	Model profile.CostModel
}

// buildState is one immutable engine build. Builds are shared by every
// epoch layered on them and close their engine when the last such epoch
// retires.
type buildState struct {
	// ext is the build's graph in the caller's external numbering (the
	// merge input of the next compaction).
	ext *graph.CSR
	// reorder maps external IDs to the build's internal degree-sorted
	// numbering and back.
	reorder *graph.Reordering
	eng     *core.Engine
	// refs counts epochs referencing this build; the engine closes when it
	// reaches zero.
	refs atomic.Int64
}

// release drops one epoch's reference, closing the engine on the last.
func (b *buildState) release() {
	if b.refs.Add(-1) == 0 {
		b.eng.Close()
	}
}

// epochState is one published snapshot: a build plus an optional frozen
// delta overlay. refs counts outstanding Epoch handles plus one for being
// the system's current epoch; the epoch retires (releasing its build) when
// refs drains after it is superseded.
type epochState struct {
	id  uint64
	bld *buildState
	ov  *core.Overlay
	// deferred counts frozen delta edges invisible to this epoch because
	// they touch vertices beyond the build's vertex space.
	deferred uint64
	refs     atomic.Int64
}

// System is the dynamic-graph subsystem: a current epoch, the
// not-yet-compacted delta, and the compaction machinery. All methods are
// safe for concurrent use; walks acquired before an epoch swap run to
// completion on their snapshot.
type System struct {
	cfg Config
	m   *dynMetrics

	mu     sync.Mutex
	closed bool
	cur    *epochState
	// delta holds every accepted edge since the last compaction, in the
	// external numbering, self-loop-filtered and (when configured)
	// undirected-expanded. delta[:frozenLen] is the frozen prefix the
	// current overlay was built from; the rest is pending.
	delta     []graph.Edge
	frozenLen int
	// nextEpoch is the next epoch ID; IDs are monotone across freezes and
	// compactions.
	nextEpoch           uint64
	freezesSinceCompact int
	freezes             uint64
	compactions         uint64

	// compactMu serializes compactions (the long build runs outside mu so
	// ingest, freeze, and walks proceed meanwhile).
	compactMu sync.Mutex

	created atomic.Uint64
	retired atomic.Uint64

	compactCh chan struct{}
	stopCh    chan struct{}
	done      sync.WaitGroup
}

// New builds a dynamic System over a base graph (external numbering,
// unweighted). The graph is not modified; the first epoch is a compacted
// view of exactly this edge set.
func New(g *graph.CSR, cfg Config) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("dyn: nil graph")
	}
	if g.Weights != nil {
		return nil, fmt.Errorf("dyn: weighted graphs are not supported (overlay sampling is uniform over base ∪ delta)")
	}
	if cfg.Algorithm.Order == 0 {
		cfg.Algorithm = algo.DeepWalk()
	}
	if cfg.Algorithm.Weighted {
		return nil, fmt.Errorf("dyn: weighted algorithms are not supported on dynamic builds")
	}
	s := &System{cfg: cfg, nextEpoch: 1}
	if cfg.Metrics {
		s.m = newDynMetrics()
	}
	bld, err := s.build(g)
	if err != nil {
		return nil, err
	}
	s.installLocked(&epochState{bld: bld})
	if cfg.CompactEvery > 0 {
		s.compactCh = make(chan struct{}, 1)
		s.stopCh = make(chan struct{})
		s.done.Add(1)
		go s.compactor()
	}
	return s, nil
}

// build constructs one engine build of ext exactly as a cold construction
// of the same graph does: degree re-sort, full MCKP plan, engine.
func (s *System) build(ext *graph.CSR) (*buildState, error) {
	reorder := graph.SortByDegreeDesc(ext)
	eng, err := core.New(reorder.Graph, s.cfg.Algorithm, core.Config{
		Workers:       s.cfg.Workers,
		Seed:          s.cfg.Seed,
		Planner:       core.PlannerMCKP,
		Model:         s.cfg.Model,
		RecordHistory: s.cfg.RecordHistory,
		Part: part.Config{
			TargetGroups: s.cfg.TargetGroups,
			MaxBins:      s.cfg.MaxBins,
		},
	})
	if err != nil {
		return nil, err
	}
	return &buildState{ext: ext, reorder: reorder, eng: eng}, nil
}

// installLocked publishes ep as the current epoch (caller holds mu, or is
// New before the system escapes): assigns its monotone ID, takes the
// current-pointer reference on it and its build, and releases the
// superseded epoch.
func (s *System) installLocked(ep *epochState) {
	ep.id = s.nextEpoch
	s.nextEpoch++
	ep.refs.Store(1)
	ep.bld.refs.Add(1)
	old := s.cur
	s.cur = ep
	s.created.Add(1)
	if s.m != nil && old != nil {
		s.m.epochSwaps.Inc()
	}
	if old != nil {
		s.releaseEpoch(old)
	}
}

// releaseEpoch drops one reference on ep, retiring it — and releasing its
// build — when the count drains.
func (s *System) releaseEpoch(ep *epochState) {
	if ep.refs.Add(-1) != 0 {
		return
	}
	s.retired.Add(1)
	if s.m != nil {
		s.m.epochsRetired.Inc()
	}
	ep.bld.release()
}

// Ingest buffers a batch of edges (external numbering; new vertex IDs
// beyond the current build's space are allowed and become walkable after
// the next compaction). Self-loops are dropped and, under
// Config.Undirected, reverse edges are inserted — the same normalization a
// cold graph build applies. Returns how many input edges were accepted.
// Buffered edges are invisible to walks until Freeze publishes them.
func (s *System) Ingest(edges []graph.Edge) (int, error) {
	for _, e := range edges {
		if e.Weight != 0 {
			return 0, fmt.Errorf("dyn: weighted delta edge %d→%d", e.Src, e.Dst)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	accepted, before := 0, len(s.delta)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		s.delta = append(s.delta, graph.Edge{Src: e.Src, Dst: e.Dst})
		if s.cfg.Undirected {
			s.delta = append(s.delta, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
		accepted++
	}
	if s.m != nil {
		s.m.ingestedEdges.Add(uint64(len(s.delta) - before))
		s.m.pendingEdges.Set(int64(len(s.delta) - s.frozenLen))
	}
	return accepted, nil
}

// Freeze publishes every pending edge as a new overlay epoch on the
// current build: walks acquired afterwards sample over base ∪ frozen
// delta. Frozen edges touching vertices beyond the build's vertex space
// are deferred — counted, kept for compaction, but invisible until then.
// Returns the published epoch's ID (the current one when nothing was
// pending). Triggers a background compaction when Config.CompactEvery
// freezes have accumulated.
func (s *System) Freeze() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.frozenLen == len(s.delta) {
		return s.cur.id, nil
	}
	s.frozenLen = len(s.delta)
	ep, err := s.freezeLocked(s.cur.bld)
	if err != nil {
		return 0, err
	}
	s.installLocked(ep)
	s.freezes++
	s.freezesSinceCompact++
	if s.m != nil {
		s.m.freezes.Inc()
		s.m.pendingEdges.Set(0)
		s.m.deltaEdges.Set(int64(ep.ov.DeltaEdges()))
	}
	if s.cfg.CompactEvery > 0 && s.freezesSinceCompact >= s.cfg.CompactEvery {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return ep.id, nil
}

// freezeLocked builds the epoch state for the frozen prefix of the delta
// against the given build: endpoints are mapped into the build's internal
// numbering, unmappable edges deferred, and the overlay assembled.
func (s *System) freezeLocked(bld *buildState) (*epochState, error) {
	n := bld.ext.NumVertices()
	internal := make([]graph.Edge, 0, s.frozenLen)
	deferred := uint64(0)
	for _, e := range s.delta[:s.frozenLen] {
		if e.Src >= n || e.Dst >= n {
			deferred++
			continue
		}
		internal = append(internal, graph.Edge{
			Src: bld.reorder.OldToNew[e.Src],
			Dst: bld.reorder.OldToNew[e.Dst],
		})
	}
	ov, err := core.BuildOverlay(bld.eng, internal)
	if err != nil {
		return nil, fmt.Errorf("dyn: freeze: %w", err)
	}
	if s.m != nil {
		s.m.deferredEdges.Add(deferred)
	}
	return &epochState{bld: bld, ov: ov, deferred: deferred}, nil
}

// Compact merges the whole accumulated delta (frozen and pending alike)
// into a fresh engine build — new vertices included — and publishes it as
// a compacted epoch. The merge block-copies untouched adjacency; the build
// over it plans from scratch, exactly as a cold build does. Ingest, Freeze,
// and walks proceed concurrently: edges arriving during the build stay
// in the delta for the next cycle (re-frozen onto the new build if they
// had already been published). Returns the new epoch's ID.
func (s *System) Compact() (uint64, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	prev := s.cur.bld
	k := len(s.delta)
	if k == 0 {
		id := s.cur.id
		s.mu.Unlock()
		return id, nil
	}
	merge := make([]graph.Edge, k)
	copy(merge, s.delta)
	s.mu.Unlock()

	start := time.Now()
	merged, err := graph.MergeEdges(prev.ext, merge)
	if err != nil {
		return 0, fmt.Errorf("dyn: compact: %w", err)
	}
	bld, err := s.build(merged)
	if err != nil {
		return 0, fmt.Errorf("dyn: compact: %w", err)
	}
	elapsed := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		bld.eng.Close()
		return 0, ErrClosed
	}
	// Edges ingested while the build ran stay for the next cycle; the
	// compacted prefix is consumed.
	s.delta = append([]graph.Edge(nil), s.delta[k:]...)
	if s.frozenLen > k {
		s.frozenLen -= k
	} else {
		s.frozenLen = 0
	}
	ep := &epochState{bld: bld}
	if s.frozenLen > 0 {
		// Edges frozen during the build were already visible to walkers;
		// re-freeze them onto the new build so the swap does not retract
		// them.
		ep, err = s.freezeLocked(bld)
		if err != nil {
			bld.eng.Close()
			return 0, err
		}
	}
	s.installLocked(ep)
	s.freezesSinceCompact = 0
	s.compactions++
	if s.m != nil {
		s.m.compactions.Inc()
		s.m.compactionNS.Observe(uint64(elapsed.Nanoseconds()))
		s.m.deltaEdges.Set(int64(ep.ov.DeltaEdges()))
		s.m.pendingEdges.Set(int64(len(s.delta) - s.frozenLen))
	}
	return ep.id, nil
}

// compactor is the background compaction loop, fed by Freeze when
// Config.CompactEvery is reached.
func (s *System) compactor() {
	defer s.done.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
			// Shutdown races a queued signal; Compact checks closed itself.
			if _, err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				// A failed background compaction leaves the current epoch
				// serving; the error surfaces through the next explicit
				// Compact call.
				continue
			}
		}
	}
}

// Close shuts the system down: the compactor stops, the current epoch's
// reference is dropped, and every build closes as its epochs drain.
// Outstanding Epoch handles must be Released before their builds free.
// Idempotent.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	cur := s.cur
	s.cur = nil
	if s.stopCh != nil {
		close(s.stopCh)
	}
	s.mu.Unlock()
	s.done.Wait()
	if cur != nil {
		s.releaseEpoch(cur)
	}
}

// Epoch is an acquired snapshot: walks on it run against the epoch's build
// and frozen delta no matter how many freezes or compactions land
// meanwhile. Release it when done — the snapshot pins its engine build.
type Epoch struct {
	sys      *System
	st       *epochState
	released atomic.Bool
}

// Acquire pins the current epoch for walking (walk-on-snapshot
// semantics). The returned Epoch must be Released.
func (s *System) Acquire() (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.cur.refs.Add(1)
	return &Epoch{sys: s, st: s.cur}, nil
}

// Release drops the snapshot's reference. Idempotent.
func (e *Epoch) Release() {
	if e.released.CompareAndSwap(false, true) {
		e.sys.releaseEpoch(e.st)
	}
}

// ID returns the epoch's monotone identifier.
func (e *Epoch) ID() uint64 { return e.st.id }

// Compacted reports whether the epoch carries no overlay: its edge set is
// entirely inside the engine build, where walks are bitwise-identical to a
// cold build of the same edges.
func (e *Epoch) Compacted() bool { return e.st.ov == nil }

// DeltaEdges returns the epoch's overlay edge count (internal, post-dedup).
func (e *Epoch) DeltaEdges() uint64 { return e.st.ov.DeltaEdges() }

// DeferredEdges returns how many frozen edges this epoch cannot see
// because they touch vertices beyond its build's vertex space.
func (e *Epoch) DeferredEdges() uint64 { return e.st.deferred }

// Reordering maps the epoch build's internal degree-sorted numbering to
// the caller's external IDs and back.
func (e *Epoch) Reordering() *graph.Reordering { return e.st.bld.reorder }

// Graph returns the epoch build's internal degree-sorted CSR (base
// adjacency only; the overlay's delta is not materialized in it).
func (e *Epoch) Graph() *graph.CSR { return e.st.bld.eng.Graph() }

// WalkMixed runs cohorts against the epoch snapshot: base ∪ frozen delta
// on overlay epochs, the build alone on compacted ones. Overlay epochs
// restrict cohorts to first-order history-free algorithms (see
// core.BuildOverlay); compacted epochs accept anything the build supports.
// Cohort walker counts and vertex IDs are in the build's internal
// numbering; map results through Reordering.
func (e *Epoch) WalkMixed(ctx context.Context, cohorts []core.Cohort) (*core.MixedResult, error) {
	sess, err := e.st.bld.eng.NewSessionOverlay(ctx, e.st.ov)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.RunMixed(cohorts)
}

// WalkSeeded runs the build's primary algorithm against the epoch
// snapshot with a per-run seed, the solo-run twin of WalkMixed.
func (e *Epoch) WalkSeeded(ctx context.Context, seed, walkers uint64, steps int) (*core.Result, error) {
	sess, err := e.st.bld.eng.NewSessionOverlay(ctx, e.st.ov)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.RunSeeded(seed, walkers, steps)
}

// Stats is a point-in-time snapshot of the system's dynamic state,
// independent of Config.Metrics.
type Stats struct {
	// Epoch is the current epoch's monotone ID.
	Epoch uint64
	// EpochsCreated and EpochsRetired count epoch lifecycle events; their
	// difference is the number of epochs still referenced.
	EpochsCreated, EpochsRetired uint64
	// PendingEdges counts accepted edges not yet frozen (post-expansion).
	PendingEdges uint64
	// FrozenEdges counts frozen, not-yet-compacted edges (post-expansion,
	// external numbering, pre-dedup).
	FrozenEdges uint64
	// DeltaEdges is the current overlay's edge count (post-dedup).
	DeltaEdges uint64
	// DeferredEdges counts frozen edges awaiting compaction to become
	// walkable (new-vertex endpoints).
	DeferredEdges uint64
	// Freezes and Compactions count completed operations.
	Freezes, Compactions uint64
}

// Stats snapshots the system's dynamic state.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		EpochsCreated: s.created.Load(),
		EpochsRetired: s.retired.Load(),
		PendingEdges:  uint64(len(s.delta) - s.frozenLen),
		FrozenEdges:   uint64(s.frozenLen),
		Freezes:       s.freezes,
		Compactions:   s.compactions,
	}
	if s.cur != nil {
		st.Epoch = s.cur.id
		st.DeltaEdges = s.cur.ov.DeltaEdges()
		st.DeferredEdges = s.cur.deferred
	}
	return st
}

// MetricsReport snapshots the dyn_* metric set (nil unless
// Config.Metrics).
func (s *System) MetricsReport() *obs.Report {
	if s.m == nil {
		return nil
	}
	return s.m.reg.Snapshot()
}
