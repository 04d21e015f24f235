package flashmob

import (
	"context"
	"fmt"

	"flashmob/internal/dyn"
	"flashmob/internal/profile"
)

// DynamicOptions configures a DynamicSystem. The planner knobs mirror
// Options; the dynamic-specific fields control freeze/compaction cadence.
type DynamicOptions struct {
	// Algorithm is the walk every build is specialized for (default
	// DeepWalk). Weighted algorithms are rejected — overlay sampling is
	// uniform over base ∪ delta, which has no meaning against alias tables.
	Algorithm Algorithm
	// Workers is the thread count (default GOMAXPROCS).
	Workers int
	// Seed drives all engine randomness across every build.
	Seed uint64
	// Undirected inserts the reverse of every ingested edge, matching an
	// undirected base graph built with BuildGraph(edges, true).
	Undirected bool
	// TargetGroups and MaxBins are the planner's G and P hyper-parameters
	// (defaults 128 and 2048).
	TargetGroups, MaxBins int
	// CompactEvery, when positive, runs a background compaction after that
	// many freezes. Zero leaves compaction to explicit Compact calls.
	CompactEvery int
	// RecordPaths keeps full walk histories so Paths() works.
	RecordPaths bool
	// Metrics enables the dyn_* metric set (see docs/OBSERVABILITY.md).
	Metrics bool
	// CostModel overrides the partition-cost model, as in Options.
	CostModel profile.CostModel
}

// DynamicSystem is a System that accepts edge updates. Ingest buffers
// edges; Freeze publishes them as a new epoch whose walks sample over
// base ∪ delta; Compact merges everything into a fresh engine build. Walks
// resolve their epoch snapshot at acquisition (Snapshot) and are never
// invalidated by later updates. All methods are safe for concurrent use.
type DynamicSystem struct {
	sys *dyn.System
}

// NewDynamic builds a dynamic system over a base graph (unweighted; the
// graph is not modified). The first epoch is a compacted view of exactly
// this edge set — its walks match a static New of the same graph.
func NewDynamic(g *Graph, opt DynamicOptions) (*DynamicSystem, error) {
	if g != nil {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("flashmob: %w", err)
		}
	}
	sys, err := dyn.New(g, dyn.Config{
		Algorithm:     opt.Algorithm,
		Workers:       opt.Workers,
		Seed:          opt.Seed,
		Undirected:    opt.Undirected,
		TargetGroups:  opt.TargetGroups,
		MaxBins:       opt.MaxBins,
		CompactEvery:  opt.CompactEvery,
		RecordHistory: opt.RecordPaths,
		Metrics:       opt.Metrics,
		Model:         opt.CostModel,
	})
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &DynamicSystem{sys: sys}, nil
}

// Ingest buffers a batch of edges in the caller's original vertex IDs.
// Endpoints beyond the current vertex space are accepted and become
// walkable after the next compaction. Self-loops are dropped and, under
// DynamicOptions.Undirected, reverse edges inserted — the same
// normalization BuildGraph applies. Returns how many input edges were
// accepted. Buffered edges stay invisible to walks until Freeze.
func (d *DynamicSystem) Ingest(edges []Edge) (int, error) {
	n, err := d.sys.Ingest(edges)
	if err != nil {
		return 0, fmt.Errorf("flashmob: %w", err)
	}
	return n, nil
}

// IngestPairs is Ingest for bare (src, dst) pairs.
func (d *DynamicSystem) IngestPairs(pairs [][2]VID) (int, error) {
	edges := make([]Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = Edge{Src: p[0], Dst: p[1]}
	}
	return d.Ingest(edges)
}

// Freeze publishes every pending edge as a new epoch: snapshots acquired
// afterwards walk over base ∪ delta. Returns the published epoch's ID
// (the current one when nothing was pending).
func (d *DynamicSystem) Freeze() (uint64, error) {
	id, err := d.sys.Freeze()
	if err != nil {
		return 0, fmt.Errorf("flashmob: %w", err)
	}
	return id, nil
}

// Compact merges the accumulated delta — new vertices included — into a
// fresh engine build and publishes it as a new epoch. Ingest, Freeze, and
// walks proceed concurrently; in-flight snapshots are unaffected. Returns
// the new epoch's ID.
func (d *DynamicSystem) Compact() (uint64, error) {
	id, err := d.sys.Compact()
	if err != nil {
		return 0, fmt.Errorf("flashmob: %w", err)
	}
	return id, nil
}

// Close shuts the system down, waiting for the background compactor.
// Outstanding Snapshots must be Released before their builds free.
// Idempotent.
func (d *DynamicSystem) Close() { d.sys.Close() }

// DynamicStats is a point-in-time snapshot of the system's dynamic state.
type DynamicStats = dyn.Stats

// Stats snapshots epoch, delta, and compaction counters.
func (d *DynamicSystem) Stats() DynamicStats { return d.sys.Stats() }

// MetricsReport snapshots the dyn_* metric set (nil unless
// DynamicOptions.Metrics).
func (d *DynamicSystem) MetricsReport() *Report { return d.sys.MetricsReport() }

// Snapshot is a pinned epoch: its walks run against the epoch's edge set
// no matter how many freezes or compactions land meanwhile.
type Snapshot struct {
	ep       *dyn.Epoch
	newToOld []VID
}

// Snapshot pins the current epoch for walking (walk-on-snapshot
// semantics). Release it when done — a pinned epoch keeps its engine
// build alive.
func (d *DynamicSystem) Snapshot() (*Snapshot, error) {
	ep, err := d.sys.Acquire()
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Snapshot{ep: ep, newToOld: ep.Reordering().NewToOld}, nil
}

// Release unpins the snapshot. Idempotent.
func (s *Snapshot) Release() { s.ep.Release() }

// Epoch returns the snapshot's monotone epoch ID.
func (s *Snapshot) Epoch() uint64 { return s.ep.ID() }

// Compacted reports whether the snapshot's edge set lives entirely in its
// engine build (no overlay). Compacted snapshots accept any algorithm and
// walk bitwise-identically to a cold build of the same edges; overlay
// snapshots restrict walks to first-order history-free algorithms.
func (s *Snapshot) Compacted() bool { return s.ep.Compacted() }

// WalkSeeded runs the system's primary algorithm against the snapshot
// with a per-run seed: trajectories are a pure function of (epoch, seed,
// walkers, steps). walkers 0 means |V|; steps 0 means the algorithm's
// default.
func (s *Snapshot) WalkSeeded(seed, walkers uint64, steps int) (*Result, error) {
	res, err := s.ep.WalkSeeded(context.Background(), seed, walkers, steps)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Result{inner: res, newToOld: s.newToOld}, nil
}

// WalkMixed runs cohorts against the snapshot through one shared pipeline
// run, with the same per-cohort determinism contract as
// Session.WalkMixed. Overlay snapshots reject cohorts that are not
// first-order and history-free.
func (s *Snapshot) WalkMixed(cohorts []CohortSpec) (*MixedResult, error) {
	res, err := s.ep.WalkMixed(context.Background(), coreCohorts(cohorts))
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &MixedResult{inner: res, newToOld: s.newToOld}, nil
}
