// Command fmserve serves walk queries over HTTP: it builds one FlashMob
// system shared by every requested algorithm (so a wave of mixed
// algorithms executes as a single mixed-cohort engine run) and exposes
// the batched, load-shedding walk service of internal/serve
// (POST /v1/walk, GET /v1/plan, GET /healthz, GET /metrics — see
// docs/SERVING.md).
//
// Usage:
//
//	fmserve -preset YT -scalediv 100 -algos deepwalk -addr :8080
//	fmserve -graph yt.bin -algos deepwalk,node2vec -p 0.5 -q 2 -window 4ms
//	fmserve -preset YT -dynamic -compact-every 4       # POST /v1/ingest appends edges
//	fmserve -preset YT -shards 2                       # in-process sharded waves
//	fmserve -preset YT -shard-worker -shard-index 0 \
//	        -shard-addrs 127.0.0.1:9101,127.0.0.1:9102 # one worker of a TCP pair
//	fmserve -preset YT -shard-workers 127.0.0.1:9101,127.0.0.1:9102
//
// Sharded serving (coordinator mode, docs/SERVING.md): -shards runs each
// wave on an in-process sharded topology; -shard-workers coordinates
// external fmserve -shard-worker processes over TCP. Responses are
// bitwise-identical to unsharded serving either way.
//
// With -addr :0 the kernel picks a free port; the chosen address is
// printed as "fmserve: listening on ADDR" so scripts (the CI smoke leg,
// fmbench) can parse it. SIGINT/SIGTERM shut down gracefully: the
// listener stops accepting, in-flight batches drain, then the systems
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		graphPath  = flag.String("graph", "", "graph file (binary CSR or text edge list)")
		undirected = flag.Bool("undirected", false, "treat edge-list input as undirected")
		preset     = flag.String("preset", "", "generate a paper-preset graph instead (YT/TW/FS/UK/YH)")
		scaleDiv   = flag.Uint("scalediv", 100, "preset downscale divisor")
		algos      = flag.String("algos", "deepwalk", "comma-separated walks to serve: deepwalk, node2vec, pagerank (first = default)")
		p          = flag.Float64("p", 1, "node2vec return parameter")
		q          = flag.Float64("q", 1, "node2vec in-out parameter")
		damping    = flag.Float64("damping", 0.85, "pagerank damping")
		seed       = flag.Uint64("seed", 42, "random seed (builds and per-batch sampling seeds)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads per system")
		metrics    = flag.Bool("metrics", true, "enable engine metrics (reported under /metrics)")

		window      = flag.Duration("window", 2*time.Millisecond, "micro-batching window")
		maxWalkers  = flag.Int("max-batch-walkers", 8192, "walker budget per batch (and per-request cap)")
		maxRequests = flag.Int("max-batch-requests", 0, "request cap per batch (0 = unlimited, 1 = no coalescing)")
		queueDepth  = flag.Int("queue-depth", 256, "admission queue bound per algorithm")
		executors   = flag.Int("executors", 2, "concurrent batch executions per algorithm")
		timeout     = flag.Duration("timeout", 2*time.Second, "default request deadline")

		dynamic      = flag.Bool("dynamic", false, "serve a dynamic graph: POST /v1/ingest appends edges, walks run on epoch snapshots (first-order algorithms only)")
		compactEvery = flag.Int("compact-every", 4, "dynamic mode: background-compact after this many freezes (0 = explicit only)")

		shards       = flag.Int("shards", 0, "run waves on an in-process sharded topology with this many shards (0 = unsharded)")
		shardWorkers = flag.String("shard-workers", "", "comma-separated shard-worker addresses: serve as the coordinator of a multi-process sharded topology")
		shardWorker  = flag.Bool("shard-worker", false, "run as one shard worker of a multi-process topology instead of serving HTTP (requires -shard-index and -shard-addrs)")
		shardIndex   = flag.Int("shard-index", 0, "this worker's shard index into -shard-addrs")
		shardAddrs   = flag.String("shard-addrs", "", "comma-separated addresses of every shard worker, in shard order")
	)
	flag.Parse()

	if *shardWorker && (*shards > 0 || *shardWorkers != "") {
		fatal(fmt.Errorf("-shard-worker is exclusive with -shards and -shard-workers"))
	}
	if *shards > 0 && *shardWorkers != "" {
		fatal(fmt.Errorf("-shards and -shard-workers are exclusive: pick one topology"))
	}
	if *dynamic && (*shards > 0 || *shardWorkers != "" || *shardWorker) {
		fatal(fmt.Errorf("-dynamic is exclusive with sharded serving"))
	}

	g, err := loadGraph(*graphPath, *preset, uint32(*scaleDiv), *seed, *undirected)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fmserve: graph |V|=%d |E|=%d CSR=%.1fMB\n",
		g.NumVertices(), g.NumEdges(), float64(g.SizeBytes())/(1<<20))

	// Every served walk here is unweighted, so one build carries them
	// all: backends share a single system (the first algorithm is the
	// build primary) and so form one engine group whose waves run as
	// mixed-cohort batches.
	type served struct {
		name string
		spec flashmob.Algorithm
	}
	var walks []served
	for _, name := range strings.Split(*algos, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var spec flashmob.Algorithm
		switch name {
		case "deepwalk":
			spec = flashmob.DeepWalk()
		case "node2vec":
			spec = flashmob.Node2Vec(*p, *q)
		case "pagerank":
			spec = flashmob.PageRankWalk(*damping)
		default:
			fatal(fmt.Errorf("unknown algorithm %q", name))
		}
		if *dynamic && (spec.Order != 1 || spec.History != nil) {
			// Overlay epochs admit only first-order history-free walks
			// (core.BuildOverlay); reject at startup, not per request.
			fatal(fmt.Errorf("-dynamic cannot serve %q: overlay epochs restrict walks to first-order history-free algorithms", name))
		}
		walks = append(walks, served{name: name, spec: spec})
	}
	if len(walks) == 0 {
		fatal(fmt.Errorf("-algos named no algorithms"))
	}
	opt := flashmob.Options{
		Algorithm:   walks[0].spec,
		Workers:     *workers,
		Seed:        *seed,
		RecordPaths: true,
		Metrics:     *metrics,
	}

	// Shard-worker mode: no HTTP service — the process builds the same
	// system every peer builds, meshes with them, and steps its shard of
	// each coordinator run until SIGINT/SIGTERM drains it.
	if *shardWorker {
		addrs := splitAddrs(*shardAddrs)
		if len(addrs) == 0 {
			fatal(fmt.Errorf("-shard-worker requires -shard-addrs"))
		}
		if *shardIndex < 0 || *shardIndex >= len(addrs) {
			fatal(fmt.Errorf("-shard-index %d out of range for %d -shard-addrs", *shardIndex, len(addrs)))
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		// Parseable by scripts; keep the exact "shard worker " prefix.
		fmt.Printf("fmserve: shard worker %d/%d listening on %s\n", *shardIndex, len(addrs), addrs[*shardIndex])
		if err := flashmob.ServeShardWorker(ctx, g, opt, *shardIndex, addrs); err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		fmt.Println("fmserve: shard worker drained, bye")
		return
	}

	// Dynamic mode: the serving system is a DynamicSystem — walks pin
	// epoch snapshots, POST /v1/ingest appends edges, and compactions
	// rebuild the engine in the background. Everything else (batching,
	// admission, mixed-cohort waves) is unchanged.
	if *dynamic {
		d, err := flashmob.NewDynamic(g, flashmob.DynamicOptions{
			Algorithm:    walks[0].spec,
			Workers:      *workers,
			Seed:         *seed,
			Undirected:   true,
			RecordPaths:  true,
			Metrics:      *metrics,
			CompactEvery: *compactEvery,
		})
		if err != nil {
			fatal(fmt.Errorf("build: %w", err))
		}
		var backends []serve.Backend
		for _, w := range walks {
			backends = append(backends, serve.Backend{Name: w.name, Dyn: d, Spec: w.spec})
			fmt.Printf("fmserve: serving %s (dynamic, shared build)\n", w.name)
		}
		fmt.Printf("fmserve: dynamic mode (compact every %d freezes)\n", *compactEvery)
		runServer(backends, serveConfig(*maxWalkers, *maxRequests, *window, *queueDepth,
			*executors, *timeout, *seed), *addr)
		return
	}

	sys, err := flashmob.New(g, opt)
	if err != nil {
		fatal(fmt.Errorf("build: %w", err))
	}

	// Coordinator topologies: waves still admit, batch, and shed exactly
	// as unsharded serving does — only walkMixed's execution target
	// changes, and responses stay bitwise-identical.
	var sharded *flashmob.ShardedSystem
	switch {
	case *shardWorkers != "":
		addrs := splitAddrs(*shardWorkers)
		if err := waitForWorkers(addrs, 15*time.Second); err != nil {
			fatal(err)
		}
		sharded, err = flashmob.NewShardedRemote(sys, addrs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fmserve: coordinating %d shard workers over TCP (%s)\n", len(addrs), *shardWorkers)
	case *shards > 0:
		sharded, err = flashmob.NewSharded(sys, *shards)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fmserve: sharded x%d (in-process exchange)\n", *shards)
	}

	var backends []serve.Backend
	plan := sys.Plan()
	for _, w := range walks {
		backends = append(backends, serve.Backend{Name: w.name, Sys: sys, Spec: w.spec, Sharded: sharded})
		fmt.Printf("fmserve: serving %s (%d VPs, sparse switch %d walkers, shared build)\n", w.name, plan.NumVPs, plan.SparseSwitch)
	}

	runServer(backends, serveConfig(*maxWalkers, *maxRequests, *window, *queueDepth,
		*executors, *timeout, *seed), *addr)
}

// serveConfig assembles the serve.Config both serving modes share.
func serveConfig(maxWalkers, maxRequests int, window time.Duration, queueDepth, executors int,
	timeout time.Duration, seed uint64) serve.Config {
	return serve.Config{
		MaxBatchWalkers:  maxWalkers,
		MaxBatchRequests: maxRequests,
		MaxWait:          window,
		QueueDepth:       queueDepth,
		Executors:        executors,
		DefaultTimeout:   timeout,
		Seed:             seed,
	}
}

// runServer builds the Server, listens, and drains on SIGINT/SIGTERM.
func runServer(backends []serve.Backend, cfg serve.Config, addr string) {
	srv, err := serve.New(backends, cfg)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	// Parseable by scripts; keep the exact "listening on " prefix.
	fmt.Printf("fmserve: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("fmserve: %s, draining\n", sig)
	case err := <-done:
		fatal(err)
	}
	// Stop accepting and let connected requests finish (their batches are
	// still executing), then drain the batching pipeline and close the
	// systems.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = hs.Shutdown(ctx)
	cancel()
	srv.Close()
	fmt.Println("fmserve: drained, bye")
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// waitForWorkers polls each shard worker's listener so the coordinator
// can be started alongside (or before) its workers without a races-y
// sleep in the launcher script.
func waitForWorkers(addrs []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, a := range addrs {
		for {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard worker %s not reachable after %v: %w", a, timeout, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

func loadGraph(path, preset string, scaleDiv uint32, seed uint64, undirected bool) (*flashmob.Graph, error) {
	switch {
	case path != "":
		return flashmob.LoadFile(path, undirected)
	case preset != "":
		return flashmob.Generate(preset, scaleDiv, seed)
	default:
		return nil, fmt.Errorf("one of -graph or -preset is required")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fmserve: %v\n", err)
	os.Exit(1)
}
