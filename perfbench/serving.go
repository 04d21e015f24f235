package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

const (
	// clients is the closed-loop client count: two keep-alive loopback
	// connections, one per core of the two-core host the load is sized
	// for.
	clients = 2
	// warmup is the untimed traffic before each measured phase.
	warmup = time.Second
	// replays is how many seeded serve-mixed requests are re-sent after
	// the timed phase and must come back byte-identical.
	replays = 32
	// buildSeed seeds every served build (the fmserve default).
	buildSeed = 42
)

// server is one in-process fmserve-equivalent: a build behind
// serve.New's handler on a loopback listener.
type server struct {
	url   string
	sys   *flashmob.System
	dyn   *flashmob.DynamicSystem
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	ready time.Time
}

// startServer loads the graph and builds the serving stack with fmserve's
// defaults: engine metrics on, one shared build for every algorithm, a
// 2 ms batching window and 2 executors. churn swaps in a dynamic backend
// (undirected ingests, background compaction every 4 freezes) serving
// the first-order algorithms only. It returns the loaded graph too, the
// reference the checker needs.
func startServer(graphPath string, churn bool) (*server, *flashmob.Graph, error) {
	g, err := flashmob.LoadFile(graphPath, false)
	if err != nil {
		return nil, nil, err
	}
	s := &server{done: make(chan error, 1)}
	var backends []serve.Backend
	if churn {
		s.dyn, err = flashmob.NewDynamic(g, flashmob.DynamicOptions{
			Algorithm: flashmob.DeepWalk(), Seed: buildSeed, Undirected: true,
			RecordPaths: true, Metrics: true, CompactEvery: 4,
		})
		if err != nil {
			return nil, nil, err
		}
		for _, name := range mixChurnAlgos {
			backends = append(backends, serve.Backend{Name: name, Dyn: s.dyn, Spec: algoSpec(name)})
		}
	} else {
		s.sys, err = flashmob.New(g, flashmob.Options{
			Algorithm: flashmob.DeepWalk(), Seed: buildSeed, RecordPaths: true, Metrics: true,
		})
		if err != nil {
			return nil, nil, err
		}
		for _, name := range mixAlgos {
			backends = append(backends, serve.Backend{Name: name, Sys: s.sys, Spec: algoSpec(name)})
		}
	}
	if s.srv, err = serve.New(backends, serve.Config{Seed: buildSeed}); err != nil {
		if s.dyn != nil {
			s.dyn.Close()
		} else {
			s.sys.Close()
		}
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.ready = time.Now()
	return s, g, nil
}

// algoSpec maps a served algorithm name to its walk.
func algoSpec(name string) flashmob.Algorithm {
	switch name {
	case "node2vec":
		return flashmob.Node2Vec(0.5, 2)
	case "pagerank":
		return flashmob.PageRankWalk(damping)
	}
	return flashmob.DeepWalk()
}

// close stops the listener, waits for the serve loop to return, then
// drains the batcher and closes the build.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// opResult is one request as the client saw it. The response body lives
// in the loadgen's spool file at [off, off+n).
type opResult struct {
	k          int
	status     int
	err        error
	start, end time.Time
	off        int64
	n          int
}

// latMS is the request's client-side latency.
func (r *opResult) latMS() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// loadgen replays a schedule against a server: ops are taken in order by
// whichever client is free, so the schedule is fixed by the seed while
// the interleaving follows the server's pace.
type loadgen struct {
	base   string
	client *http.Client
	ops    []op
	next   atomic.Int64
	// spool keeps response bodies on disk until the checks read them
	// back. Bodies kept in the heap would count toward peak_rss_mb and
	// grow with the run's length.
	spool    *os.File
	spoolEnd atomic.Int64
}

// newLoadgen builds a load generator holding at most `clients` keep-alive
// connections, spooling bodies to a temporary file.
func newLoadgen(base string, ops []op) (*loadgen, error) {
	f, err := os.CreateTemp("", "perfbench-bodies-*")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &loadgen{base: base, client: &http.Client{Transport: tr}, ops: ops, spool: f}, nil
}

// close drops the idle connections and the spool file.
func (l *loadgen) close() {
	l.client.CloseIdleConnections()
	l.spool.Close()
	os.Remove(l.spool.Name())
}

// do sends global op k (the schedule wraps), reads the whole body into
// buf and spools it. Decoding waits until the timed phase is over.
func (l *loadgen) do(k int, buf *bytes.Buffer) opResult {
	o := &l.ops[k%len(l.ops)]
	r := opResult{k: k}
	req, err := http.NewRequest(http.MethodPost, l.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.start = time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		r.end, r.err = time.Now(), err
		return r
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	r.end, r.status, r.err = time.Now(), resp.StatusCode, err
	if err == nil {
		r.n = buf.Len()
		r.off = l.spoolEnd.Add(int64(r.n)) - int64(r.n)
		_, r.err = l.spool.WriteAt(buf.Bytes(), r.off)
	}
	return r
}

// body reads a result's response body back from the spool.
func (l *loadgen) body(r *opResult) ([]byte, error) {
	b := make([]byte, r.n)
	_, err := l.spool.ReadAt(b, r.off)
	return b, err
}

// closedLoop runs `clients` closed-loop clients for d: each sends its
// next op only after the previous answer arrived. It returns every
// result and the phase's wall time, start to last answer.
func (l *loadgen) closedLoop(d time.Duration) ([]opResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				per[c] = append(per[c], l.do(int(l.next.Add(1)-1), &buf))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []opResult
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, wall
}

// warmPairs drives the server's lazily grown state to its steady size
// before anything is measured. The server keeps one pooled session per
// concurrently executing wave and grows each session's per-cohort state
// on the first wave with that many cohorts. Two closed-loop clients
// mostly move in lockstep — both requests land in one wave — so when a
// second session first appears, and with it about 25 MB of resident
// memory, would otherwise be left to chance. For every walk shape among
// the schedule's first `walks` walk ops, both clients first send
// staggered by more than the batching window (two waves overlap, one per
// executor session), then at once (one two-cohort wave, on each session
// in turn).
func (l *loadgen) warmPairs(walks int) []opResult {
	const stagger = 5 * time.Millisecond
	var out []opResult
	for _, delay := range []time.Duration{stagger, 0} {
		for k, sent := 0, 0; sent < walks && k < len(l.ops); k++ {
			if l.ops[k].path != "/v1/walk" {
				continue
			}
			sent++
			var (
				wg   sync.WaitGroup
				pair [clients]opResult
			)
			for c := range pair {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					time.Sleep(time.Duration(c) * delay)
					var buf bytes.Buffer
					pair[c] = l.do(k, &buf)
				}(c)
			}
			wg.Wait()
			out = append(out, pair[:]...)
		}
	}
	return out
}

// serveCheck accumulates the checked outcome of a phase's results.
type serveCheck struct {
	attempted, failed int
	// wrong counts ops whose output failed a check (a subset of failed,
	// which also counts refused or errored requests).
	wrong          int
	err            error
	walkerSteps    uint64
	latMS          []float64
	queueMS, runMS []float64
	overheadMS     []float64
	batchRequests  []float64
	runCohorts     []float64
	responseBytes  []float64
	ingestMS       []float64
	ingestedEdges  int
	tele, prHops   int
}

// fail counts one failed op, keeping the first error.
func (c *serveCheck) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// wrongOutput counts one op whose answer failed its output check.
func (c *serveCheck) wrongOutput(err error) {
	c.wrong++
	c.fail(err)
}

// checkResults decodes and checks one phase's results after the phase
// ended. Walk hops are checked against chk, which must already hold every
// edge ingested so far. Traced phases record each request's span tree:
// the client-side request with its queue and engine-run intervals taken
// from the response fields (their self-time remainder is HTTP, JSON and
// path copying), and each ingest.
func checkResults(chk *checker, lg *loadgen, rs []opResult, tr *tracer) *serveCheck {
	c := &serveCheck{}
	for i := range rs {
		r := &rs[i]
		o := &lg.ops[r.k%len(lg.ops)]
		c.attempted++
		t0 := time.Now()
		body, err := lg.body(r)
		if r.err != nil || err != nil || r.status != http.StatusOK {
			c.fail(fmt.Errorf("op %d %s: status %d: %v %v %s", r.k, o.path, r.status, r.err, err, body))
			continue
		}
		if o.path == "/v1/ingest" {
			var resp serve.IngestResponse
			if err := json.Unmarshal(body, &resp); err != nil || resp.Accepted != len(o.ingest.Edges) {
				c.wrongOutput(fmt.Errorf("op %d ingest: accepted %d of %d (%v)", r.k, resp.Accepted, len(o.ingest.Edges), err))
				continue
			}
			c.ingestMS = append(c.ingestMS, r.latMS())
			c.ingestedEdges += resp.Accepted
			tr.record(0, uint64(r.k)+1, "dyn.ingest", r.start, r.end)
			continue
		}
		var resp serve.WalkResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			c.wrongOutput(fmt.Errorf("op %d: decode: %w", r.k, err))
			continue
		}
		tele, err := checkWalk(chk, &o.walk, &resp)
		if err != nil {
			c.wrongOutput(fmt.Errorf("op %d (%s, %d walkers, %d steps): %w", r.k, o.walk.Algorithm, o.walk.Walkers, o.walk.Steps, err))
			continue
		}
		if o.walk.Algorithm == "pagerank" {
			c.tele += tele
			c.prHops += o.walk.Walkers * o.walk.Steps
		}
		c.walkerSteps += uint64(o.walk.Walkers * o.walk.Steps)
		lat := r.latMS()
		c.latMS = append(c.latMS, lat)
		c.queueMS = append(c.queueMS, resp.QueueMS)
		c.runMS = append(c.runMS, resp.RunMS)
		c.overheadMS = append(c.overheadMS, lat-resp.QueueMS-resp.RunMS)
		c.batchRequests = append(c.batchRequests, float64(resp.BatchRequests))
		c.runCohorts = append(c.runCohorts, float64(resp.RunCohorts))
		c.responseBytes = append(c.responseBytes, float64(r.n))
		if tr != nil {
			id, req := tr.newID(), uint64(r.k)+1
			q := r.start.Add(time.Duration(resp.QueueMS * 1e6))
			tr.record(id, req, "serve.queue", r.start, q)
			tr.record(id, req, "core.run", q, q.Add(time.Duration(resp.RunMS*1e6)))
			tr.add(id, 0, req, "serve.request", r.start, r.end)
			tr.record(0, req, "bench.check", t0, time.Now())
		}
	}
	if !teleportShareOK(c.tele, c.prHops, damping) {
		c.wrongOutput(fmt.Errorf("pagerank teleport share %d/%d is far from %.2f", c.tele, c.prHops, 1-damping))
	}
	return c
}

// checkWalk checks one decoded walk response against its request.
func checkWalk(chk *checker, req *serve.WalkRequest, resp *serve.WalkResponse) (tele int, err error) {
	if resp.Algorithm != req.Algorithm || resp.Walkers != req.Walkers || resp.Steps != req.Steps ||
		!resp.Seeded || resp.Seed != *req.Seed {
		return 0, fmt.Errorf("response echoes %s/%d walkers/%d steps/seed %d",
			resp.Algorithm, resp.Walkers, resp.Steps, resp.Seed)
	}
	if len(resp.Paths) != req.Walkers {
		return 0, fmt.Errorf("%d paths for %d walkers", len(resp.Paths), req.Walkers)
	}
	for _, p := range resp.Paths {
		t, err := chk.path(p, req.Steps, req.Algorithm == "pagerank")
		if err != nil {
			return 0, err
		}
		tele += t
	}
	return tele, nil
}

// pathsBytes is the raw "paths" array of an encoded walk response, the
// part a seeded replay must reproduce byte for byte (timings and batch
// shape legitimately differ between sends).
func pathsBytes(body []byte) []byte {
	_, rest, ok := bytes.Cut(body, []byte(`"paths":`))
	if !ok {
		return nil
	}
	paths, _, _ := bytes.Cut(rest, []byte(`,"queue_ms"`))
	return paths
}
