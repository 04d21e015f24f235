package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"flashmob"
	"flashmob/internal/rng"
	"flashmob/internal/serve"
)

// workload is one benchmark input set. The graph is a fixed function of
// the workload (generator seed graphSeed): generating the YH/80 graph
// takes over a minute, so it is made once per checkout and shared by
// every run seed. The run seed picks everything that varies per run —
// walk seeds, the request schedule and the ingest edge stream.
type workload struct {
	name     string
	preset   string
	scaleDiv uint32
	// serve marks the HTTP workloads; churn adds the dynamic backend and
	// the ingest stream.
	serve, churn bool
}

var workloads = []workload{
	{name: "bulk-deepwalk", preset: "YH", scaleDiv: 80},
	{name: "serve-mixed", preset: "YT", scaleDiv: 1, serve: true},
	{name: "serve-churn", preset: "YT", scaleDiv: 1, serve: true, churn: true},
}

const (
	graphSeed = 17
	// bulkSteps is the walk length of one bulk job.
	bulkSteps = 5
	// bulkJobs is how many job seeds the bulk schedule carries (one
	// warm-up plus timed jobs; a run uses as many as its time allows).
	bulkJobs = 64
	// serveOps is the serve schedule length; the load generator wraps
	// around it. At the fastest rate seen (~200 req/s) it covers 100 s of
	// traffic.
	serveOps = 20000
	// ingestEvery makes every ingestEvery-th serve-churn op an ingest.
	ingestEvery = 10
	// ingestEdges is the edge count of one ingest batch.
	ingestEdges = 512
	// newVertexShare is the share of ingested edges with one endpoint
	// beyond the base graph, absorbed at the next compaction.
	newVertexShare = 0.05
	// damping is the PageRank walk's continuation probability.
	damping = 0.85
)

// walkers, steps and the algorithm names are the request mix the serve
// workloads cycle through; serve-churn uses only the first-order
// algorithms (overlay epochs cannot run node2vec).
var (
	mixWalkers    = []int{8, 32, 128}
	mixSteps      = []int{16, 32, 64}
	mixAlgos      = []string{"deepwalk", "node2vec", "pagerank"}
	mixChurnAlgos = []string{"deepwalk", "pagerank"}
)

// workloadByName resolves a --workload argument.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// graphPath is the workload graph's file under the inputs directory.
func (w workload) graphPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("graph-%s-%d-%d.bin", w.preset, w.scaleDiv, graphSeed))
}

// schedulePath is the (workload, seed) schedule file.
func (w workload) schedulePath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.ops", w.name, seed))
}

// op is one schedule entry: an HTTP path and its JSON body (serve
// workloads) or one bulk job. Bodies are decoded once when the schedule
// is read, never inside a timed loop.
type op struct {
	path   string
	body   []byte
	walk   serve.WalkRequest
	ingest serve.IngestRequest
}

// bulkJob is the body of a bulk schedule entry.
type bulkJob struct {
	Seed  uint64 `json:"seed"`
	Steps int    `json:"steps"`
}

// generateGraph writes the workload's graph under dir unless it exists.
// The file is written to a temporary name and renamed, so an interrupted
// generation leaves nothing behind that a later run would trust.
func generateGraph(w workload, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gp := w.graphPath(dir)
	if _, err := os.Stat(gp); err == nil {
		return nil
	}
	g, err := flashmob.Generate(w.preset, w.scaleDiv, graphSeed)
	if err != nil {
		return fmt.Errorf("generate graph: %w", err)
	}
	if err := writeAtomic(gp, func(path string) error { return flashmob.SaveFile(path, g) }); err != nil {
		return fmt.Errorf("save graph: %w", err)
	}
	return nil
}

// generate writes the workload's graph (if missing) and the (workload,
// seed) schedule (if missing) under dir.
func generate(w workload, seed uint64, dir string) error {
	if err := generateGraph(w, dir); err != nil {
		return err
	}
	sp := w.schedulePath(dir, seed)
	if _, err := os.Stat(sp); err == nil {
		return nil
	}
	var numV uint32
	if w.churn {
		g, err := flashmob.LoadFile(w.graphPath(dir), false)
		if err != nil {
			return fmt.Errorf("load graph: %w", err)
		}
		numV = g.NumVertices()
	}
	ops := schedule(w, seed, numV)
	return writeAtomic(sp, func(path string) error { return writeSchedule(path, ops) })
}

// schedule builds the (workload, seed) op list. Serve ops cycle through
// the request mix from a seed-chosen offset, each walk with its own seed;
// on serve-churn every ingestEvery-th op is an ingest of a batch drawn
// from (seed, batch index) over a graph of numV vertices.
func schedule(w workload, seed uint64, numV uint32) []op {
	var ops []op
	if !w.serve {
		for i := 0; i < bulkJobs; i++ {
			b, _ := json.Marshal(bulkJob{Seed: rng.Mix64(seed ^ uint64(i)*0x9e37_79b9), Steps: bulkSteps})
			ops = append(ops, op{path: "bulk", body: b})
		}
		return ops
	}
	algos := mixAlgos
	if w.churn {
		algos = mixChurnAlgos
	}
	combos := len(mixWalkers) * len(mixSteps) * len(algos)
	offset := int(rng.Mix64(seed) % uint64(combos))
	walks, batches := 0, 0
	for i := 0; i < serveOps; i++ {
		if w.churn && i%ingestEvery == ingestEvery-1 {
			req := serve.IngestRequest{Edges: ingestBatch(seed, batches, numV), Freeze: true}
			b, _ := json.Marshal(req)
			ops = append(ops, op{path: "/v1/ingest", body: b})
			batches++
			continue
		}
		c := (walks + offset) % combos
		s := rng.Mix64(seed<<20 ^ uint64(walks))
		req := serve.WalkRequest{
			Walkers:   mixWalkers[c%len(mixWalkers)],
			Steps:     mixSteps[c/len(mixWalkers)%len(mixSteps)],
			Algorithm: algos[c/(len(mixWalkers)*len(mixSteps))],
			Seed:      &s,
		}
		b, _ := json.Marshal(req)
		ops = append(ops, op{path: "/v1/walk", body: b})
		walks++
	}
	return ops
}

// ingestBatch draws batch b of the edge stream: ingestEdges edges without
// self-loops over numV vertices, about newVertexShare of them with one
// endpoint among numV/20 vertices past the base graph.
func ingestBatch(seed uint64, b int, numV uint32) [][2]flashmob.VID {
	src := rng.NewXorShift1024Star(rng.Mix64(seed ^ 0xed6e_57a3 ^ uint64(b)<<24))
	growth := max(numV/20, 1)
	edges := make([][2]flashmob.VID, ingestEdges)
	for i := range edges {
		u := rng.Uint32n(src, numV)
		v := rng.Uint32n(src, numV)
		for v == u {
			v = rng.Uint32n(src, numV)
		}
		if rng.Float64(src) < newVertexShare {
			v = numV + rng.Uint32n(src, growth)
		}
		edges[i] = [2]flashmob.VID{u, v}
	}
	return edges
}

// writeSchedule stores ops as "path<TAB>body" lines.
func writeSchedule(path string, ops []op) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, o := range ops {
		w.WriteString(o.path)
		w.WriteByte('\t')
		w.Write(o.body)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSchedule loads and decodes a schedule file.
func readSchedule(path string) ([]op, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ops []op
	for n, line := range bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n")) {
		p, body, ok := bytes.Cut(line, []byte("\t"))
		if !ok {
			return nil, fmt.Errorf("%s:%d: no tab", path, n+1)
		}
		o := op{path: string(p), body: body}
		switch o.path {
		case "/v1/walk":
			err = json.Unmarshal(body, &o.walk)
		case "/v1/ingest":
			err = json.Unmarshal(body, &o.ingest)
		case "bulk":
			var j bulkJob
			err = json.Unmarshal(body, &j)
			o.walk = serve.WalkRequest{Steps: j.Steps, Seed: &j.Seed}
		default:
			err = fmt.Errorf("unknown op %q", o.path)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n+1, err)
		}
		ops = append(ops, o)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", path)
	}
	return ops, nil
}

// writeAtomic runs write on a temporary sibling of path and renames it
// into place once write succeeded.
func writeAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
