// Package serve is the walk-query serving layer: a batched, load-shedding
// HTTP service (cmd/fmserve) on top of flashmob's concurrent sessions.
//
// The FlashMob insight — throughput comes from amortizing many walkers
// over one pass of the partitioned graph — applies unchanged to serving:
// running small independent queries one-by-one pays the full per-run cost
// (session setup, walker arrays, a shuffler, per-step stage overhead over
// every partition) for a handful of walkers, while coalescing them into
// one shared engine run pays it once. The server therefore admits
// requests into a bounded queue, a per-engine micro-batcher collects
// them into batches (closed by a max-walkers budget or a max-wait
// window), and executors run each batch on one of the engine's parked
// sessions, demuxing per-request slices of the walker array back to the
// callers.
//
// Batches mix algorithms: backends that share one built system share one
// queue, and each wave executes as a single mixed-cohort engine run
// (System.WalkMixed) — requests for different algorithms and step counts
// become cohorts of one shared partition sweep instead of fragmenting
// into one engine run per (algorithm, steps) pair. docs/SERVING.md spells
// out what still fragments a batch.
//
// Admission control protects the engine: a full queue answers 503 with
// Retry-After, requests whose deadline passes while queued are shed
// before execution, and Close drains in-flight batches before closing
// the underlying systems (late requests get the ErrClosed-mapped 503).
//
// Determinism: a request carrying a seed gets a private cohort of its
// wave's run, and mixed runs rebind every cohort from its spec before
// stepping, so its trajectories are a pure function of (build, algorithm,
// seed, walkers, steps) — identical whether it rode a batch alone,
// coalesced with others, or executed on a parked session an earlier wave
// used. Unseeded requests share one per-batch-seeded cohort and are
// sliced out of its walker array.
//
// docs/SERVING.md documents the endpoints, the wire schema, and the
// tuning knobs.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flashmob"
)

// Backend is one served algorithm: a name to route requests by and the
// built system that executes them.
type Backend struct {
	// Name routes requests (the WalkRequest.Algorithm field); the first
	// backend is the default for requests that leave it empty.
	Name string
	// Sys is the built system. It must be built with RecordPaths (the
	// responses carry trajectories) and without a MemoryBudget (episode
	// splitting would drop all but the last episode's history); New
	// probes both. Several backends may share one system: they then share
	// one batching queue and their requests coalesce into mixed-cohort
	// runs (the engine samples each cohort with its own algorithm, so one
	// system serves every unweighted walk shape). The server owns the
	// system from New on and closes it in Close.
	Sys *flashmob.System
	// Spec is the algorithm the system was built with; its Steps field
	// resolves requests that leave steps at 0.
	Spec flashmob.Algorithm
	// Sharded, when non-nil, turns the backend's engine group into a
	// shard coordinator: each wave's mixed-cohort run is scattered across
	// the topology's shard engines and the trajectories gathered back,
	// instead of executing on a local engine session. The handle must
	// wrap the same Sys (NewSharded / NewShardedRemote on it); admission,
	// batching, deadlines, and drain semantics are unchanged, and
	// responses are bitwise-identical to unsharded serving. Backends
	// sharing one system must agree on this handle.
	Sharded *flashmob.ShardedSystem
	// Dyn, when non-nil, makes this a dynamic backend: Sys must be nil
	// (the dynamic system owns its engine builds), Sharded is not
	// supported, and every wave executes against an epoch snapshot pinned
	// when the batch starts (walk-on-snapshot consistency — in-flight
	// batches are never invalidated by ingests, freezes, or compactions;
	// see docs/SERVING.md). The server additionally exposes POST
	// /v1/ingest routed to this system, which it owns from New on and
	// closes in Close. Backends sharing one dynamic system share one
	// queue, exactly as Sys-backed backends do. Must be built with
	// RecordPaths; overlay epochs restrict served algorithms to
	// first-order history-free walks.
	Dyn *flashmob.DynamicSystem
}

// Config tunes the server's batching and admission control. Zero values
// take the documented defaults.
type Config struct {
	// MaxBatchWalkers closes a batch once its requests sum to this many
	// walkers, and caps the walker array of one coalesced engine run
	// (default 8192).
	MaxBatchWalkers int
	// MaxBatchRequests closes a batch after this many requests (0 =
	// unlimited; 1 disables coalescing — the batch-size-1 baseline).
	MaxBatchRequests int
	// MaxWait is the micro-batching window: how long an open batch waits
	// for more requests before executing (default 2ms).
	MaxWait time.Duration
	// QueueDepth bounds the per-algorithm admission queue; a full queue
	// sheds new requests with 503 (default 256).
	QueueDepth int
	// Executors is how many batches may execute concurrently per
	// algorithm, each on its own engine session (default 2).
	Executors int
	// DefaultTimeout is the deadline applied to requests that send no
	// timeout_ms (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeouts (default 30s).
	MaxTimeout time.Duration
	// MaxWalkersPerRequest bounds one request's walker count (default
	// MaxBatchWalkers; never above it).
	MaxWalkersPerRequest int
	// MaxSteps bounds one request's walk length (default 512).
	MaxSteps int
	// Seed drives the per-batch seeds of unseeded (sampling-mode) runs.
	Seed uint64
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatchWalkers <= 0 {
		c.MaxBatchWalkers = 8192
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	} else if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxWalkersPerRequest <= 0 || c.MaxWalkersPerRequest > c.MaxBatchWalkers {
		c.MaxWalkersPerRequest = c.MaxBatchWalkers
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 512
	}
	return c
}

// Server coalesces walk queries into batched engine runs and answers
// them over HTTP. Create with New, mount Handler on an http.Server, and
// Close to drain and shut down.
type Server struct {
	cfg      Config
	m        *serveMetrics
	backends []*backend
	byName   map[string]*backend
	groups   []*engineGroup
	// dyn is the dynamic system ingest routes to (the server supports at
	// most one); nil on static servers.
	dyn    *flashmob.DynamicSystem
	start  time.Time
	runSeq atomic.Uint64

	// now is the server's clock, read once per dispatch wave and once per
	// execution wave for deadline checks and latency accounting (not per
	// pending request). Overridden by tests to pin shed and latency
	// behavior to a fake clock.
	now func() time.Time

	// mu guards closed against concurrent enqueues: enqueue holds the
	// read side so Close cannot close a queue mid-send.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over the given backends (at least one; the first
// is the default algorithm). Backends that pass the same *System share
// one engine group — one queue, one batching window, and mixed-cohort
// runs across their algorithms; distinct systems batch independently.
// Each distinct system is probed with a one-walker walk to verify it can
// produce trajectories; the server owns the systems afterwards and
// closes them in Close.
func New(backends []Backend, cfg Config) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: no backends")
	}
	s := &Server{
		cfg:    cfg.withDefaults(),
		m:      newServeMetrics(),
		byName: make(map[string]*backend, len(backends)),
		start:  time.Now(),
		now:    time.Now,
	}
	bySys := make(map[*flashmob.System]*engineGroup)
	byDyn := make(map[*flashmob.DynamicSystem]*engineGroup)
	for _, bk := range backends {
		if bk.Name == "" || (bk.Sys == nil && bk.Dyn == nil) {
			return nil, fmt.Errorf("serve: backend needs a name and a system")
		}
		if bk.Dyn != nil && bk.Sys != nil {
			return nil, fmt.Errorf("serve: backend %q: Sys and Dyn are exclusive", bk.Name)
		}
		if bk.Dyn != nil && bk.Sharded != nil {
			return nil, fmt.Errorf("serve: backend %q: dynamic backends cannot be sharded", bk.Name)
		}
		if _, dup := s.byName[bk.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate backend %q", bk.Name)
		}
		var g *engineGroup
		if bk.Dyn != nil {
			if s.dyn != nil && s.dyn != bk.Dyn {
				return nil, fmt.Errorf("serve: backend %q: at most one dynamic system per server", bk.Name)
			}
			s.dyn = bk.Dyn
			g = byDyn[bk.Dyn]
			if g == nil {
				if err := probeDyn(bk.Dyn); err != nil {
					return nil, fmt.Errorf("serve: backend %q: %w", bk.Name, err)
				}
				g = &engineGroup{
					s:       s,
					dyn:     bk.Dyn,
					queue:   make(chan *pending, s.cfg.QueueDepth),
					batches: make(chan []*pending),
					free:    make(chan []*pending, s.cfg.Executors+1),
				}
				byDyn[bk.Dyn] = g
				s.groups = append(s.groups, g)
			}
		} else if g = bySys[bk.Sys]; g == nil {
			if err := probe(bk.Sys); err != nil {
				return nil, fmt.Errorf("serve: backend %q: %w", bk.Name, err)
			}
			g = &engineGroup{
				s:       s,
				sys:     bk.Sys,
				queue:   make(chan *pending, s.cfg.QueueDepth),
				batches: make(chan []*pending),
				free:    make(chan []*pending, s.cfg.Executors+1),
			}
			bySys[bk.Sys] = g
			s.groups = append(s.groups, g)
		}
		if bk.Sharded != nil {
			if g.sharded != nil && g.sharded != bk.Sharded {
				return nil, fmt.Errorf("serve: backend %q: backends sharing one system must share one sharded handle", bk.Name)
			}
			g.sharded = bk.Sharded
		}
		b := &backend{name: bk.Name, sys: bk.Sys, spec: bk.Spec, g: g}
		g.backends = append(g.backends, b)
		s.byName[bk.Name] = b
		s.backends = append(s.backends, b)
	}
	for _, g := range s.groups {
		s.wg.Add(1 + s.cfg.Executors)
		go g.dispatch()
		for i := 0; i < s.cfg.Executors; i++ {
			go g.executor()
		}
	}
	return s, nil
}

// probe verifies a system can serve: a one-walker, one-step walk must
// yield a path, which catches systems built without RecordPaths before
// the first request does.
func probe(sys *flashmob.System) error {
	res, err := sys.Walk(1, 1)
	if err != nil {
		return err
	}
	if _, err := res.Paths(); err != nil {
		return fmt.Errorf("system cannot produce trajectories (build it with RecordPaths): %w", err)
	}
	return nil
}

// probeDyn is probe for a dynamic backend, walking an epoch snapshot.
func probeDyn(d *flashmob.DynamicSystem) error {
	snap, err := d.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Release()
	res, err := snap.WalkSeeded(0, 1, 1)
	if err != nil {
		return err
	}
	if _, err := res.Paths(); err != nil {
		return fmt.Errorf("system cannot produce trajectories (build it with RecordPaths): %w", err)
	}
	return nil
}

// Handler returns the server's HTTP handler: POST /v1/walk, GET /v1/plan,
// GET /healthz, GET /metrics (see docs/SERVING.md).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/walk", s.handleWalk)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Close shuts the server down gracefully: new requests are refused with
// the ErrClosed-mapped 503, every request already admitted is drained —
// batched, executed, and answered (or shed if its deadline passed) — and
// the backends' systems are closed once the last batch finishes.
// Idempotent; Handler keeps answering health checks (as closed) after.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, g := range s.groups {
		close(g.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, g := range s.groups {
		if g.dyn != nil {
			g.dyn.Close()
			continue
		}
		g.sys.Close()
	}
}

// Metrics snapshots the serving layer's own registry (queue depth, shed
// counters, batch shape, latency histograms).
func (s *Server) Metrics() *flashmob.Report { return s.m.reg.Snapshot() }
