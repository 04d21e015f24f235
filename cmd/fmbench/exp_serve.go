package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"flashmob"
	"flashmob/internal/serve"
)

// serveAlgos is the served algorithm mix: a uniform first-order walk, a
// second-order node2vec walk and a PPR-style stochastic-termination
// walk, one backend each, all sharing one built system.
var serveAlgos = []string{"deepwalk", "node2vec", "pagerank"}

// serveLoads are the offered loads, as multiples of the calibrated
// batch-size-1 capacity.
var serveLoads = []float64{0.5, 1, 2, 3}

// Each load point offers at least minPointRequests requests (so the
// p99 has ten samples beyond it) and at least pointSeconds of load.
const (
	minPointRequests = 1000
	pointSeconds     = 1.5
)

// servePoint is one variant at one offered load, folded over repeats.
type servePoint struct {
	Load       string  `json:"load"`
	LoadFactor float64 `json:"load_factor"`
	OfferedQPS float64 `json:"offered_qps"`
	Offered    int     `json:"offered_requests"`
	loadStats
	LagP99MS  float64 `json:"gen_lag_ms_p99"`
	LagMaxMS  float64 `json:"gen_lag_ms_max"`
	MeanBatch float64 `json:"mean_batch_requests"`
	Speedup   float64 `json:"goodput_vs_batch1"`
}

// serveVariant is one server configuration swept across the loads.
type serveVariant struct {
	Name             string       `json:"name"`
	MaxBatchRequests int          `json:"max_batch_requests"`
	Loads            []servePoint `json:"loads"`
}

// serveReport is the schema of BENCH_serve.json.
type serveReport struct {
	Experiment  string         `json:"experiment"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Graph       string         `json:"graph"`
	Workers     int            `json:"workers"`
	Steps       int            `json:"steps"`
	Algorithms  []string       `json:"algorithms"`
	MixWalkers  []int          `json:"mix_walkers"`
	MixSteps    []int          `json:"mix_steps"`
	Executors   int            `json:"executors"`
	SoloMS      float64        `json:"solo_ms_mean"`
	CapacityQPS float64        `json:"capacity_qps"`
	Repeats     int            `json:"repeats"`
	Variants    []serveVariant `json:"variants"`
}

// expServe is the open-loop load sweep of the walk-query service: one
// shared build behind deepwalk, node2vec and pagerank backends (the
// fmserve topology) receives seeded requests of 8/32/128 walkers at
// 2x/4x/8x -steps across the three algorithms, at 0.5, 1, 2 and 3 times
// the batch-size-1 capacity calibrated on this host. The batch1 variant
// (MaxBatchRequests 1) runs every request as its own engine run; the
// coalesce variant (serve.Config defaults, a 2 ms window) runs each wave
// as one mixed-cohort run. Below capacity the sweep shows what the
// window costs in latency; past it, what coalescing buys in goodput
// while batch1 sheds. Requests are timed from their scheduled send
// time, so a late generator shows as latency, never as lost load.
func expServe(w io.Writer, cfg benchConfig) error {
	const graphName = "YT"
	g, err := presetGraphSized(graphName, cfg, cfg.MinCSR)
	if err != nil {
		return err
	}
	stepsMix := []int{2 * cfg.Steps, 4 * cfg.Steps, 8 * cfg.Steps}
	mix := requestMix{walkers: []int{8, 32, 128}, steps: stepsMix}
	variants := []struct {
		name string
		sc   serve.Config
	}{
		{"batch1", serve.Config{MaxBatchRequests: 1, Seed: cfg.Seed}},
		{"coalesce", serve.Config{Seed: cfg.Seed}},
	}

	ls, err := newServeServer(g, cfg, variants[0].sc)
	if err != nil {
		return err
	}
	solo, err := ls.soloLatency(mix)
	ls.Close()
	if err != nil {
		return err
	}
	const executors = 2 // serve.Config's default
	capacity := executors / solo.Seconds()
	fmt.Fprintf(w, "calibration: solo request %.2fms -> batch-size-1 capacity ~%.0f req/s; %v walkers x %v steps x %v\n\n",
		solo.Seconds()*1e3, capacity, mix.walkers, mix.steps, serveAlgos)

	reps := max(cfg.Repeats, 1)
	rep := serveReport{
		Experiment:  "serve",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Graph:       graphName,
		Workers:     cfg.Workers,
		Steps:       cfg.Steps,
		Algorithms:  serveAlgos,
		MixWalkers:  mix.walkers,
		MixSteps:    mix.steps,
		Executors:   executors,
		SoloMS:      solo.Seconds() * 1e3,
		CapacityQPS: capacity,
		Repeats:     reps,
	}
	// runs[v][l] holds variant v's repeats at load l.
	runs := make([][][]servePoint, len(variants))
	for v := range runs {
		runs[v] = make([][]servePoint, len(serveLoads))
	}
	for r := 0; r < reps; r++ {
		for v, vc := range variants {
			ls, err := newServeServer(g, cfg, vc.sc)
			if err != nil {
				return err
			}
			for l, f := range serveLoads {
				runs[v][l] = append(runs[v][l], ls.runPoint(mix, f, f*capacity))
			}
			ls.Close()
		}
	}

	row(w, "variant@load", "offered", "served", "shed", "goodput", "p50-ms", "p99-ms", "lag-p99-ms", "batch", "vs-b1")
	var batch1 []float64 // batch1's goodput per load
	for v, vc := range variants {
		sv := serveVariant{Name: vc.name, MaxBatchRequests: vc.sc.MaxBatchRequests}
		for l := range serveLoads {
			p := foldServeRepeats(runs[v][l])
			if v == 0 {
				batch1 = append(batch1, p.Goodput)
			}
			if batch1[l] > 0 {
				p.Speedup = p.Goodput / batch1[l]
			}
			sv.Loads = append(sv.Loads, p)
			row(w, sv.Name+"@"+p.Load, big(uint64(p.Offered)), big(uint64(p.Served)), big(uint64(p.Shed)),
				fmt.Sprintf("%.2fM", p.Goodput/1e6), f2(p.P50MS), f2(p.P99MS), f2(p.LagP99MS),
				f2(p.MeanBatch), fmt.Sprintf("%.2fx", p.Speedup))
		}
		rep.Variants = append(rep.Variants, sv)
	}
	return writeBenchJSON(w, "BENCH_serve.json", rep)
}

// foldServeRepeats collapses one point's repeats into one record:
// foldLoad for the load stats, per-repeat means for the rest.
func foldServeRepeats(runs []servePoint) servePoint {
	p := runs[0]
	p.loadStats = foldLoad(column(runs, func(r servePoint) loadStats { return r.loadStats }))
	p.OfferedQPS = meanOf(runs, func(r servePoint) float64 { return r.OfferedQPS })
	p.LagP99MS = meanOf(runs, func(r servePoint) float64 { return r.LagP99MS })
	p.LagMaxMS = meanOf(runs, func(r servePoint) float64 { return r.LagMaxMS })
	p.MeanBatch = meanOf(runs, func(r servePoint) float64 { return r.MeanBatch })
	return p
}

// requestMix is the seeded request stream: request i asks for
// serveAlgos[i%3], walkers[(i/3)%3] and steps[(i/9)%3] with seed i+1,
// so every 27 consecutive requests cover each combination once and
// every variant and load point sees the same requests.
type requestMix struct {
	walkers, steps []int
}

// request builds the stream's i-th request.
func (m requestMix) request(i int) serve.WalkRequest {
	seed := uint64(i) + 1
	return serve.WalkRequest{
		Algorithm: serveAlgos[i%len(serveAlgos)],
		Walkers:   m.walkers[i/3%len(m.walkers)],
		Steps:     m.steps[i/9%len(m.steps)],
		Seed:      &seed,
	}
}

// maxConns caps the generator's open connections, which bounds the file
// descriptors of both ends. It sits well above the ~700 requests a
// default server holds with this mix (its queue, the batch waiting for
// an executor and the executing waves), so the server, not the
// generator, decides what to shed. A request due while every connection
// is busy waits for one on its own clock, so the wait counts as latency.
const maxConns = 2048

// loadServer is a serve.Server behind an HTTP listener on an ephemeral
// loopback port, plus the client the load generator posts through.
type loadServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
}

// newServeServer builds one DeepWalk system behind the three algorithm
// backends (the server owns and closes it) and listens on an ephemeral
// loopback port.
func newServeServer(g *flashmob.Graph, cfg benchConfig, sc serve.Config) (*loadServer, error) {
	sys, err := flashmob.New(g, flashmob.Options{
		Algorithm: flashmob.DeepWalk(), Workers: cfg.Workers, Seed: cfg.Seed, RecordPaths: true,
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New([]serve.Backend{
		{Name: "deepwalk", Sys: sys, Spec: flashmob.DeepWalk()},
		{Name: "node2vec", Sys: sys, Spec: flashmob.Node2Vec(0.5, 2)},
		{Name: "pagerank", Sys: sys, Spec: flashmob.PageRankWalk(0.85)},
	}, sc)
	if err != nil {
		sys.Close()
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
		url:    "http://" + ln.Addr().String() + "/v1/walk",
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}},
	}, nil
}

// Close stops the listener, then the server and the system it owns, and
// drops the client's idle connections.
func (ls *loadServer) Close() {
	ls.hs.Close()
	ls.srv.Close()
	ls.client.CloseIdleConnections()
}

// post issues one walk query and discards the body.
func (ls *loadServer) post(req serve.WalkRequest) (int, error) {
	body, _ := json.Marshal(req)
	resp, err := ls.client.Post(ls.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// soloLatency is a batch-size-1 server's mean service time over the
// mix, timed on sequential single requests so that nothing is amortized
// or queued: after one warm-up pass over the mix's 27 combinations,
// five timed passes, each combination's median of its five, averaged
// over the combinations. The medians keep one stalled request from
// moving the capacity every load point is offered against.
func (ls *loadServer) soloLatency(mix requestMix) (time.Duration, error) {
	const combos, passes = 27, 5
	lat := make([][]time.Duration, combos)
	for i := 0; i < combos*(passes+1); i++ {
		t0 := time.Now()
		status, err := ls.post(mix.request(i))
		if err != nil {
			return 0, err
		}
		if status != 200 {
			return 0, fmt.Errorf("calibration request got status %d", status)
		}
		if i >= combos {
			lat[i%combos] = append(lat[i%combos], time.Since(t0))
		}
	}
	var sum time.Duration
	for _, l := range lat {
		slices.Sort(l)
		sum += l[passes/2]
	}
	return sum / combos, nil
}

// runPoint offers the mix open loop at qps and folds the observations
// into one point, the server's mean batch size over the point included.
func (ls *loadServer) runPoint(mix requestMix, factor, qps float64) servePoint {
	offered := max(minPointRequests, int(qps*pointSeconds))
	h0, _ := ls.srv.Metrics().Histogram("serve_batch_requests")
	results, wall := ls.openLoop(offered, qps, mix)
	h1, _ := ls.srv.Metrics().Histogram("serve_batch_requests")
	p := servePoint{
		Load:       fmt.Sprintf("%gx", factor),
		LoadFactor: factor,
		OfferedQPS: qps,
		Offered:    offered,
		loadStats:  tallyLoad(results, wall),
	}
	p.LagP99MS, p.LagMaxMS = lagStats(results)
	if n := h1.Count - h0.Count; n > 0 {
		p.MeanBatch = float64(h1.Sum-h0.Sum) / float64(n)
	}
	return p
}

// openLoop offers requests on a fixed schedule: request i is due at
// start + i/qps, however slow the server is. Each observation's latency
// runs from the request's due time to its drained response, and its lag
// from the due time to when its goroutine began sending. It returns one
// observation per request and the wall time until the last one
// finished.
func (ls *loadServer) openLoop(offered int, qps float64, mix requestMix) ([]loadObs, time.Duration) {
	results := make([]loadObs, offered)
	interval := time.Duration(float64(time.Second) / qps)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < offered; i++ {
		due := start.Add(time.Duration(i) * interval)
		if sleep := time.Until(due); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			lag := time.Since(due)
			req := mix.request(i)
			status, err := ls.post(req)
			if err != nil {
				status = -1
			}
			results[i] = loadObs{status: status, walkerSteps: req.Walkers * req.Steps, latency: time.Since(due), lag: lag}
		}(i, due)
	}
	wg.Wait()
	return results, time.Since(start)
}

// loadObs is one client-side observation of a walk query.
type loadObs struct {
	status      int // HTTP status; -1 for a transport error
	walkerSteps int // walkers × steps the query asked for
	latency     time.Duration
	lag         time.Duration // how late the generator sent it
}

// lagStats is the nearest-rank p99 and the maximum of the generator's
// lag over every observation, in milliseconds.
func lagStats(results []loadObs) (p99, maxLag float64) {
	lag := make([]time.Duration, len(results))
	for i, r := range results {
		lag[i] = r.lag
	}
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ms(lag[len(lag)*99/100]), ms(lag[len(lag)-1])
}

// loadStats is what the sweep reports about one load run.
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
