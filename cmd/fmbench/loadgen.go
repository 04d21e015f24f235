package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"flashmob/internal/serve"
)

// The serving experiments (serve, mixed, dynamic) share this load
// generator: a serve.Server on an ephemeral loopback port, one walk-post
// helper, the solo-latency calibration, open- and closed-loop drivers,
// the served/shed/failed tally, and the fold over repeats. Each
// experiment keeps only its backends, its serve.Config, and its own
// per-variant fields.

// loadServer is a serve.Server behind an HTTP listener on an ephemeral
// loopback port, plus the client the load generator posts through.
type loadServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
}

// startServer builds a serve.Server over backends (the server owns and
// closes their systems) and listens on an ephemeral port. release
// closes the systems if the server cannot be built.
func startServer(backends []serve.Backend, sc serve.Config, release func()) (*loadServer, error) {
	srv, err := serve.New(backends, sc)
	if err != nil {
		release()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &loadServer{
		srv:    srv,
		hs:     hs,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512}},
	}, nil
}

// Close stops the listener, then the server and the systems it owns.
func (ls *loadServer) Close() { ls.hs.Close(); ls.srv.Close() }

// postJSON posts v, JSON-encoded, to path on the server.
func (ls *loadServer) postJSON(path string, v any) (*http.Response, error) {
	body, _ := json.Marshal(v)
	return ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
}

// post issues one walk query and discards the body.
func (ls *loadServer) post(req serve.WalkRequest) (int, error) {
	resp, err := ls.postJSON("/v1/walk", req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// loadObs is one client-side observation of a walk query.
type loadObs struct {
	status      int // HTTP status; -1 for a transport error
	walkerSteps int // walkers × steps the query asked for
	latency     time.Duration
}

// observe issues req and times it, from encoding the body to draining
// the response.
func (ls *loadServer) observe(req serve.WalkRequest) loadObs {
	t0 := time.Now()
	status, err := ls.post(req)
	if err != nil {
		status = -1
	}
	return loadObs{status: status, walkerSteps: req.Walkers * req.Steps, latency: time.Since(t0)}
}

// soloLatency measures the median latency of sequential single requests
// (24, the first 4 skipped as warm-up) against a batch-size-1 server
// from start: the per-request cost when nothing is amortized.
func soloLatency(start func() (*loadServer, error), mix []int, steps int) (time.Duration, error) {
	ls, err := start()
	if err != nil {
		return 0, err
	}
	defer ls.Close()
	var lat []time.Duration
	for i := 0; i < 24; i++ {
		t0 := time.Now()
		status, err := ls.post(serve.WalkRequest{Walkers: mix[i%len(mix)], Steps: steps})
		if err != nil {
			return 0, err
		}
		if status != 200 {
			return 0, fmt.Errorf("calibration request got status %d", status)
		}
		if i >= 4 { // skip warm-up
			lat = append(lat, time.Since(t0))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], nil
}

// openLoop offers requests on a fixed schedule: request i fires at
// start + i/qps with mix[i%len(mix)] walkers, no matter how slow the
// server is — lateness is the server's problem, not the clients'. It
// returns one observation per request and the wall time until the last
// one finished.
func (ls *loadServer) openLoop(offered int, qps float64, mix []int, steps int) ([]loadObs, time.Duration) {
	results := make([]loadObs, offered)
	interval := time.Duration(float64(time.Second) / qps)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < offered; i++ {
		if sleep := start.Add(time.Duration(i) * interval).Sub(time.Now()); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ls.observe(serve.WalkRequest{Walkers: mix[i%len(mix)], Steps: steps})
		}(i)
	}
	wg.Wait()
	return results, time.Since(start)
}

// closedLoop runs clients concurrent clients, each issuing perClient
// requests back to back; req(c, j) is client c's j-th request and its
// observation lands at index c*perClient+j. It returns the observations
// and the wall time until every client finished.
func (ls *loadServer) closedLoop(clients, perClient int, req func(c, j int) serve.WalkRequest) ([]loadObs, time.Duration) {
	results := make([]loadObs, clients*perClient)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				results[c*perClient+j] = ls.observe(req(c, j))
			}
		}(c)
	}
	wg.Wait()
	return results, time.Since(start)
}

// loadStats is what a serving experiment reports about one load run,
// embedded in each experiment's variant record.
type loadStats struct {
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	ReqPerSec  float64 `json:"served_req_per_sec"`
	Goodput    float64 `json:"goodput_walker_steps_per_sec"`
	GoodputStd float64 `json:"goodput_std"`
	P50MS      float64 `json:"served_p50_ms"`
	P99MS      float64 `json:"served_p99_ms"`
	P99StdMS   float64 `json:"p99_std_ms"`
}

// tallyLoad classifies observations — 200 served, 503 shed, anything
// else (a transport error included) failed — and derives the served
// rate, the goodput (served walker-steps per wall second) and the
// nearest-rank p50/p99 of served latency. With nothing served, rates
// and percentiles stay 0.
func tallyLoad(results []loadObs, wall time.Duration) loadStats {
	var s loadStats
	var lat []time.Duration
	var walkerSteps float64
	for _, r := range results {
		switch r.status {
		case 200:
			s.Served++
			lat = append(lat, r.latency)
			walkerSteps += float64(r.walkerSteps)
		case 503:
			s.Shed++
		default:
			s.Failed++
		}
	}
	if s.Served > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.P50MS = float64(lat[len(lat)/2]) / float64(time.Millisecond)
		s.P99MS = float64(lat[len(lat)*99/100]) / float64(time.Millisecond)
		s.ReqPerSec = float64(s.Served) / wall.Seconds()
		s.Goodput = walkerSteps / wall.Seconds()
	}
	return s
}

// column projects f over runs.
func column[T, U any](runs []T, f func(T) U) []U {
	out := make([]U, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// meanOf is the mean of f over runs.
func meanOf[T any](runs []T, f func(T) float64) float64 {
	mean, _ := meanStd(column(runs, f))
	return mean
}

// foldLoad collapses per-repeat stats into one record: request counts
// become per-repeat means (rounded), rates and latencies carry the mean
// across repeats, and goodput and p99 additionally record the
// population standard deviation.
func foldLoad(runs []loadStats) loadStats {
	count := func(f func(loadStats) int) int {
		return int(meanOf(runs, func(s loadStats) float64 { return float64(f(s)) }) + 0.5)
	}
	var v loadStats
	v.Served = count(func(s loadStats) int { return s.Served })
	v.Shed = count(func(s loadStats) int { return s.Shed })
	v.Failed = count(func(s loadStats) int { return s.Failed })
	v.ReqPerSec = meanOf(runs, func(s loadStats) float64 { return s.ReqPerSec })
	v.Goodput, v.GoodputStd = meanStd(column(runs, func(s loadStats) float64 { return s.Goodput }))
	v.P50MS = meanOf(runs, func(s loadStats) float64 { return s.P50MS })
	v.P99MS, v.P99StdMS = meanStd(column(runs, func(s loadStats) float64 { return s.P99MS }))
	return v
}
