package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxBodyBytes bounds a request body; walk queries are a few hundred
// bytes.
const maxBodyBytes = 1 << 20

// writeJSON encodes one response body (the structs in wire.go encode
// with deterministic field order).
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// respBufs recycles walk-response encode buffers: trajectories dominate
// the body (a wave can carry hundreds of kilobytes of path JSON), and
// pooling keeps the per-response garbage to the bytes actually written.
var respBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// pathsNullToken is the placeholder encodeWalkResponse splices the fast
// path array over.
var pathsNullToken = []byte(`"paths":null`)

// encodeWalkResponse marshals a 200 walk response byte-identically to
// encoding/json, but writes the paths array — the bulk of the body, pure
// numbers — with strconv instead of per-element reflection: the envelope
// is marshaled with Paths nil and the fast-encoded array spliced over
// the "paths":null placeholder. buf is the (pooled) destination,
// returned with the encoding appended. Falls back to nil (caller uses
// writeJSON) if the envelope cannot be marshaled or the placeholder is
// not found.
func encodeWalkResponse(buf []byte, resp *WalkResponse) []byte {
	paths := resp.Paths
	resp.Paths = nil
	head, err := json.Marshal(resp)
	resp.Paths = paths
	if err != nil || paths == nil {
		return nil
	}
	i := bytes.Index(head, pathsNullToken)
	if i < 0 {
		return nil
	}
	buf = append(buf, head[:i+len(`"paths":`)]...)
	buf = append(buf, '[')
	for pi, p := range paths {
		if pi > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for vi, v := range p {
			if vi > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(v), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, ']')
	buf = append(buf, head[i+len(pathsNullToken):]...)
	return append(buf, '\n')
}

// writeWalkResponse answers a served walk with the fast paths encoder,
// falling back to the generic encoder when it does not apply (e.g. a
// response with no trajectories).
func writeWalkResponse(w http.ResponseWriter, resp *WalkResponse) {
	bp := respBufs.Get().(*[]byte)
	buf := encodeWalkResponse((*bp)[:0], resp)
	if buf == nil {
		respBufs.Put(bp)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Explicit length keeps large trajectory bodies out of chunked
	// encoding (one frame, cheaper client reads).
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	// Keep moderate buffers; let one-off giants go to the collector.
	if cap(buf) <= 4<<20 {
		*bp = buf[:0]
		respBufs.Put(bp)
	}
}

// writeErr answers with an ErrorResponse; when retry is set the 503
// carries the Retry-After hint (header in whole seconds, body in ms).
func (s *Server) writeErr(w http.ResponseWriter, status int, msg string, retry bool) {
	body := ErrorResponse{SchemaVersion: SchemaVersion, Error: msg}
	if retry {
		ms := float64(s.cfg.MaxWait) / float64(time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		body.RetryAfterMS = ms
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ms/1000))))
	}
	writeJSON(w, status, body)
}

// handleWalk is POST /v1/walk: validate, admit, wait for the batch
// outcome, and answer with the demuxed trajectories.
func (s *Server) handleWalk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, "POST only", false)
		return
	}
	var req WalkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error(), false)
		return
	}
	b := s.backends[0]
	if req.Algorithm != "" {
		var ok bool
		if b, ok = s.byName[req.Algorithm]; !ok {
			s.writeErr(w, http.StatusBadRequest, "unknown algorithm "+strconv.Quote(req.Algorithm), false)
			return
		}
	}
	if req.Walkers < 1 || req.Walkers > s.cfg.MaxWalkersPerRequest {
		s.writeErr(w, http.StatusBadRequest,
			"walkers must be in [1, "+strconv.Itoa(s.cfg.MaxWalkersPerRequest)+"]", false)
		return
	}
	steps := req.Steps
	if steps == 0 {
		steps = b.spec.Steps
	}
	if steps < 1 || steps > s.cfg.MaxSteps {
		s.writeErr(w, http.StatusBadRequest,
			"steps must be in [1, "+strconv.Itoa(s.cfg.MaxSteps)+"]", false)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp before converting: a huge float overflows time.Duration
		// to a negative deadline that would slip under the clamp.
		timeout = s.cfg.MaxTimeout
		if ms := req.TimeoutMS * float64(time.Millisecond); ms < float64(s.cfg.MaxTimeout) {
			timeout = time.Duration(ms)
		}
	}
	now := s.now()
	p := &pending{
		b:        b,
		walkers:  req.Walkers,
		steps:    steps,
		enq:      now,
		deadline: now.Add(timeout),
		resp:     make(chan outcome, 1),
	}
	if req.Seed != nil {
		p.seed, p.seeded = *req.Seed, true
	}
	if err := b.enqueue(p); err != nil {
		if err == errClosed {
			s.m.shedClosed.Inc()
			s.writeErr(w, http.StatusServiceUnavailable, "server closed", false)
		} else {
			s.m.shedOverload.Inc()
			s.writeErr(w, http.StatusServiceUnavailable, "admission queue full", true)
		}
		return
	}
	out := <-p.resp
	if out.status != http.StatusOK {
		s.writeErr(w, out.status, out.errMsg, out.retry)
		return
	}
	s.m.served.Inc()
	s.m.queueNS.Observe(uint64(out.execStart.Sub(p.enq)))
	s.m.latencyNS.Observe(uint64(s.now().Sub(p.enq)))
	resp := WalkResponse{
		SchemaVersion: SchemaVersion,
		Algorithm:     b.name,
		Walkers:       p.walkers,
		Steps:         out.steps,
		Seeded:        p.seeded,
		Coalesced:     out.batchRequests > 1,
		BatchRequests: out.batchRequests,
		RunWalkers:    out.runWalkers,
		RunCohorts:    out.runCohorts,
		Epoch:         out.epoch,
		Paths:         out.paths,
		QueueMS:       float64(out.execStart.Sub(p.enq)) / float64(time.Millisecond),
		RunMS:         float64(out.runDur) / float64(time.Millisecond),
	}
	if p.seeded {
		resp.Seed = p.seed
	}
	writeWalkResponse(w, &resp)
}

// handleIngest is POST /v1/ingest (dynamic servers only): buffer a batch
// of edges and optionally freeze them into a new epoch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, "POST only", false)
		return
	}
	if s.dyn == nil {
		s.writeErr(w, http.StatusNotFound, "server has no dynamic backend (start with a dynamic system to ingest)", false)
		return
	}
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error(), false)
		return
	}
	accepted, err := s.dyn.IngestPairs(req.Edges)
	if err != nil {
		s.writeErr(w, http.StatusServiceUnavailable, err.Error(), false)
		return
	}
	if req.Freeze {
		if _, err := s.dyn.Freeze(); err != nil {
			s.writeErr(w, http.StatusServiceUnavailable, err.Error(), false)
			return
		}
	}
	st := s.dyn.Stats()
	writeJSON(w, http.StatusOK, IngestResponse{
		SchemaVersion: SchemaVersion,
		Accepted:      accepted,
		Epoch:         st.Epoch,
		PendingEdges:  st.PendingEdges,
		DeltaEdges:    st.DeltaEdges,
		DeferredEdges: st.DeferredEdges,
		Compactions:   st.Compactions,
	})
}

// handlePlan is GET /v1/plan: every served algorithm's partitioning
// summary. Dynamic backends are skipped — their plan is per-epoch-build
// and changes with every compaction.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, "GET only", false)
		return
	}
	resp := PlanResponse{SchemaVersion: SchemaVersion}
	for _, b := range s.backends {
		if b.sys == nil {
			continue
		}
		p := b.sys.Plan()
		resp.Algorithms = append(resp.Algorithms, PlanEntry{
			Algorithm:    b.name,
			NumVPs:       p.NumVPs,
			NumGroups:    p.NumGroups,
			Bins:         p.Bins,
			PSVertices:   p.PSVertices,
			DSVertices:   p.DSVertices,
			SparseSwitch: p.SparseSwitch,
			SparseDSVPs:  p.SparseDSVPs,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is GET /healthz: 200 while serving, 503 once shutdown has
// begun so load balancers drain the instance.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, "GET only", false)
		return
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	resp := HealthResponse{Status: "ok", UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond)}
	status := http.StatusOK
	if closed {
		resp.Status = "closed"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics is GET /metrics: the serving layer's obs report plus
// each engine's lifetime aggregate when engine metrics are on.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, "GET only", false)
		return
	}
	resp := MetricsResponse{SchemaVersion: SchemaVersion, Server: s.Metrics()}
	for _, b := range s.backends {
		if b.sys == nil {
			continue
		}
		if rep := b.sys.MetricsReport(); rep != nil {
			resp.Engines = append(resp.Engines, EngineReport{Algorithm: b.name, Report: rep})
		}
	}
	if s.dyn != nil {
		resp.Dyn = s.dyn.MetricsReport()
	}
	for _, g := range s.groups {
		if g.sharded != nil {
			resp.Shards = append(resp.Shards, EngineReport{
				Algorithm: g.backends[0].name, Report: g.sharded.MetricsReport(),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
