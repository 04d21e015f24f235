// Package flashmob is a cache-efficient graph random-walk engine, a
// from-scratch Go reproduction of "Random Walks on Huge Graphs at Cache
// Efficiency" (Yang, Ma, Thirumuruganathan, Chen, Wu — SOSP 2021).
//
// Random walks look like the canonical random-access workload, but
// FlashMob shows they hide substantial locality: sort vertices by degree,
// cut them into cache-sized partitions, process all walkers on one
// partition at a time, and shuffle walkers between steps. Popular
// (high-degree) partitions additionally pre-sample batches of edges so
// co-located walkers consume full cache lines. Partition sizes and
// per-partition policies are chosen optimally by reducing the decision to
// a Multiple-Choice Knapsack Problem solved with dynamic programming.
//
// Quick start:
//
//	g, _ := flashmob.Generate("YT", 100, 42)       // synthetic YouTube-shaped graph
//	sys, _ := flashmob.New(g, flashmob.Options{
//		Algorithm:   flashmob.DeepWalk(),
//		RecordPaths: true,
//	})
//	res, _ := sys.Walk(0, 0)                       // |V| walkers × 80 steps
//	fmt.Printf("%.1f ns/step\n", res.PerStepNS())
//	paths := res.Paths()                           // original vertex IDs
//
// The deeper machinery is exposed through the internal packages for the
// benchmark harness: internal/core (engine), internal/part (MCKP
// planner), internal/mem + internal/sim (cache-hierarchy simulation),
// internal/baseline (KnightKing/GraphVite-style comparison engines).
package flashmob

import (
	"context"
	"fmt"
	"io"
	"os"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/profile"
)

// ErrClosed is returned by Walk and NewSession after Close has released
// the System's worker pool. Test with errors.Is.
var ErrClosed = core.ErrClosed

// VID is a vertex identifier.
type VID = graph.VID

// Graph is the CSR adjacency structure all engines consume.
type Graph = graph.CSR

// Algorithm describes the random-walk process to run.
type Algorithm = algo.Spec

// DeepWalk returns the first-order uniform walk (80 steps).
func DeepWalk() Algorithm { return algo.DeepWalk() }

// Node2Vec returns the second-order biased walk with return parameter p
// and in-out parameter q (40 steps).
func Node2Vec(p, q float64) Algorithm { return algo.Node2Vec(p, q) }

// PageRankWalk returns a first-order walk with restart probability
// 1-damping, the Monte-Carlo PageRank estimator.
func PageRankWalk(damping float64) Algorithm { return algo.PageRankWalk(damping) }

// Planner selects the partitioning strategy.
type Planner = core.PlannerKind

// Planner choices. A plan's PS partitions pre-sample only for walks of
// at least Plan().SparseSwitch walkers (at most |V|): smaller walks
// direct-sample every partition, PlannerUniformPS's included.
const (
	PlannerMCKP      = core.PlannerMCKP
	PlannerUniformPS = core.PlannerUniformPS
	PlannerUniformDS = core.PlannerUniformDS
	PlannerManual    = core.PlannerManual
)

// Options configures a System.
type Options struct {
	// Algorithm is the walk to run (default DeepWalk).
	Algorithm Algorithm
	// Workers is the thread count (default GOMAXPROCS).
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
	// Planner selects the partitioning strategy (default MCKP).
	Planner Planner
	// TargetGroups and MaxBins are the paper's G and P hyper-parameters
	// (defaults 128 and 2048).
	TargetGroups, MaxBins int
	// MemoryBudget caps walker-array bytes per episode (0 = unlimited).
	MemoryBudget uint64
	// RecordPaths keeps full walk histories so Paths() works.
	RecordPaths bool
	// EdgeUniformInit places walkers proportionally to degree instead of
	// one per vertex.
	EdgeUniformInit bool
	// CostModel overrides the partition-cost model (default: analytical
	// model of the paper's Xeon Gold 6126 cache geometry). Use a measured
	// profile.Table for host-tuned planning.
	CostModel profile.CostModel
	// EdgeStream, when non-nil, receives each step's sampled edges in
	// walker order (cur[j] → next[j]): the streaming output mode for
	// feeding downstream consumers (e.g. embedding training) without
	// retaining history. Vertex IDs are in the internal degree-sorted
	// numbering. Slices are reused and must be copied if kept; with
	// RecordPaths they are rows of the recorded history and are read-only.
	EdgeStream func(step int, cur, next []VID)
	// Metrics enables the observability layer: per-stage and
	// per-partition counters and latency histograms, pool busy/barrier
	// accounting, and runtime/pprof stage labels on worker goroutines.
	// Each Walk's Result then carries a Report snapshot. Off by default;
	// docs/OBSERVABILITY.md documents every metric and the measured
	// overhead.
	Metrics bool
}

// System is a ready-to-walk FlashMob instance: the graph has been
// degree-sorted, partitioned, and assigned sampling policies. The System
// itself is the immutable build — graph, plan, kernels, worker pool; all
// per-run state lives in sessions, so Walk is safe to call from any
// number of goroutines, and concurrent Walks produce the same
// trajectories the same calls produce serially.
type System struct {
	engine *core.Engine
	// newToOld maps the build's degree-sorted vertex IDs back to the
	// caller's: the one renumbering map a System keeps.
	newToOld []VID
}

// New prepares a System for g. The input graph is not modified: New
// creates a degree-sorted internal copy (the pre-processing step the paper
// measures at O(|V|) via counting sort) and plans partitions on it.
func New(g *Graph, opt Options) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("flashmob: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	if opt.Algorithm.Order == 0 {
		opt.Algorithm = DeepWalk()
	}
	reorder := graph.SortByDegreeDesc(g)
	cfg := core.Config{
		Workers:       opt.Workers,
		Seed:          opt.Seed,
		Planner:       opt.Planner,
		Model:         opt.CostModel,
		MemoryBudget:  opt.MemoryBudget,
		RecordHistory: opt.RecordPaths,
		Part: part.Config{
			TargetGroups: opt.TargetGroups,
			MaxBins:      opt.MaxBins,
		},
	}
	if opt.EdgeUniformInit {
		cfg.Init = core.InitEdgeUniform
	}
	cfg.Metrics = opt.Metrics
	cfg.StepSink = opt.EdgeStream
	engine, err := core.New(reorder.Graph, opt.Algorithm, cfg)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &System{engine: engine, newToOld: reorder.NewToOld}, nil
}

// Close releases the system's persistent worker pool, first waiting for
// in-flight Walks and open Sessions to finish. Idempotent; Walk and
// NewSession return ErrClosed afterwards. Optional — an unreachable
// System is reclaimed by a finalizer — but deterministic.
func (s *System) Close() { s.engine.Close() }

// Walk advances walkers (0 = |V|) for steps steps (0 = the algorithm's
// default) and returns the result. Safe for concurrent callers: each call
// acquires its own session, and concurrent calls interleave their
// pipeline phases on the shared worker pool while producing
// bitwise-identical trajectories to the same calls run serially. Returns
// ErrClosed after Close.
func (s *System) Walk(walkers uint64, steps int) (*Result, error) {
	res, err := s.engine.Run(walkers, steps)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Result{inner: res, newToOld: s.newToOld}, nil
}

// Session is an explicit run handle on a System: a reserved set of
// per-run buffers plus, when Options.Metrics is set, a private metrics
// registry, so each Result.Report from this session covers exactly the
// session's own Walks. Use it to cancel long walks via context, or to
// amortize session setup across many Walks from one goroutine. A Session
// is not itself concurrency-safe — one Walk at a time per session;
// concurrency comes from multiple sessions (or concurrent System.Walk
// calls, which manage sessions implicitly).
type Session struct {
	inner    *core.Session
	newToOld []VID
}

// NewSession acquires a run handle. A nil ctx means context.Background();
// a canceled ctx makes the session's Walks abort between pipeline steps
// with the context's error. Close the session to release its buffers back
// to the System (a System.Close blocks until every open session closes).
// Returns ErrClosed after System.Close.
func (s *System) NewSession(ctx context.Context) (*Session, error) {
	inner, err := s.engine.NewSession(ctx)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Session{inner: inner, newToOld: s.newToOld}, nil
}

// Walk advances walkers (0 = |V|) for steps steps (0 = the algorithm's
// default) on this session.
func (s *Session) Walk(walkers uint64, steps int) (*Result, error) {
	res, err := s.inner.Run(walkers, steps)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Result{inner: res, newToOld: s.newToOld}, nil
}

// WalkSeeded is Walk with a per-run seed overriding Options.Seed: walker
// placement and every edge draw derive from the given seed, so the
// trajectories are a pure function of (System build, seed, walkers,
// steps) on any session — reproducible no matter what ran before on the
// same session, or what runs concurrently on other sessions. Every run
// starts from empty PS buffers. This is the hook internal/serve uses to
// answer seeded walk queries identically whether they ride a batch alone
// or coalesced with others.
func (s *Session) WalkSeeded(seed uint64, walkers uint64, steps int) (*Result, error) {
	res, err := s.inner.RunSeeded(seed, walkers, steps)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &Result{inner: res, newToOld: s.newToOld}, nil
}

// Close releases the session's buffers back to the System and folds its
// metrics into the System-lifetime aggregate. Idempotent.
func (s *Session) Close() { s.inner.Close() }

// MetricsReport snapshots the System-lifetime metrics aggregate: the fold
// of every session closed since the System was built (an open session's
// counts arrive when it closes). Nil unless the System was created with
// Options.Metrics. Individual runs' snapshots are Result.Report; this is
// the view GET /metrics on an fmserve server exposes per engine.
func (s *System) MetricsReport() *Report { return s.engine.MetricsReport() }

// PlanSummary describes the partitioning decision in effect.
type PlanSummary struct {
	// NumVPs is the total vertex-partition count.
	NumVPs int
	// NumGroups is the MCKP class count.
	NumGroups int
	// Bins is the outer-shuffle bin count (the MCKP weight).
	Bins int
	// PSVertices and DSVertices count vertices under each policy.
	PSVertices, DSVertices uint32
	// SparseSwitch is W*: a walk or cohort of fewer walkers samples with
	// the sparse kernel template, which direct-samples every partition the
	// plan pre-samples, and one of at least W* walkers with the plan's
	// own. The build derives it from its cost model; 0 when the plan has
	// no PS partition.
	SparseSwitch uint64
	// SparseDSVPs counts the partitions that are PS in the plan's kernel
	// template but DS in the sparse one.
	SparseDSVPs int
}

// Plan returns a summary of the active partitioning.
func (s *System) Plan() PlanSummary {
	p := s.engine.Plan()
	sum := PlanSummary{
		NumVPs:       p.NumVPs(),
		NumGroups:    len(p.Groups),
		Bins:         p.Weight(),
		SparseSwitch: s.engine.SparseSwitch(),
		SparseDSVPs:  s.engine.SparseDSVPs(),
	}
	for _, vp := range p.VPs {
		if vp.Policy == profile.PS {
			sum.PSVertices += vp.Vertices()
		} else {
			sum.DSVertices += vp.Vertices()
		}
	}
	return sum
}

// Generate builds a synthetic stand-in for one of the paper's datasets
// ("YT", "TW", "FS", "UK", "YH"), downscaled by scaleDiv (1 = full size —
// beware memory). The degree distribution matches the paper's Table 2
// shape at the generated size.
func Generate(preset string, scaleDiv uint32, seed uint64) (*Graph, error) {
	p, err := gen.PresetByName(preset)
	if err != nil {
		return nil, err
	}
	return p.Generate(scaleDiv, seed)
}

// BuildGraph assembles a CSR from an edge list. Set undirected to insert
// reverse edges (the convention for the paper's social graphs).
func BuildGraph(edges []graph.Edge, undirected bool) (*Graph, error) {
	res, err := graph.Build(edges, graph.BuildOptions{
		Undirected:      undirected,
		RemoveSelfLoops: true,
		Dedup:           true,
	})
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// Edge is one input edge for BuildGraph.
type Edge = graph.Edge

// LoadEdgeList reads a SNAP-style text edge list and builds a graph.
func LoadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	edges, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return BuildGraph(edges, undirected)
}

// LoadFile loads a graph from a file: binary CSR (written by SaveFile) or
// text edge list, chosen by probing the binary magic.
func LoadFile(path string, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if g, err := graph.ReadBinary(f); err == nil {
		return g, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return LoadEdgeList(f, undirected)
}

// SaveFile writes g in the binary CSR format.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.WriteBinary(f, g)
}

// PlanJSON serializes the active partition plan (internal degree-sorted
// vertex numbering) for inspection or caching.
func (s *System) PlanJSON(w io.Writer) error {
	return s.engine.Plan().WriteJSON(w)
}

// PlanDescription returns a human-readable layout summary (the paper's
// Figure 10a view).
func (s *System) PlanDescription() string {
	return s.engine.Plan().Summary()
}

// SelfAvoiding returns an order-(window+1) walk that suppresses
// revisiting vertices seen within the last `window` steps — an example of
// the engine's general order-k transition support (see algo.HigherOrder
// for fully custom history-dependent walks).
func SelfAvoiding(window, steps int, eps float64) Algorithm {
	return algo.SelfAvoiding(window, steps, eps)
}
