package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
)

// initChunkWords caps one frameInit payload: (id, vertex) pairs of
// words, well under maxFramePayload.
const initChunkWords = 2 * (1 << 16)

// Remote is the coordinator side of a multi-process topology: shard i
// lives in the worker process at addrs[i] (ServeWorker), and RunMixed
// scatters resolved cohorts, init placements, and a GO to every worker,
// then gathers path fragments and counter trailers. The coordinator
// builds the same engine as the workers — it needs the plan for the
// shard map and the seeded init placement — but never steps walkers
// itself.
//
// Runs serialize on an internal mutex: successive runs share the
// workers' exchange mesh, whose only ordering guarantee is per-pair
// FIFO.
type Remote struct {
	eng   *core.Engine
	smap  *part.ShardMap
	addrs []string
	m     *Metrics
	mu    sync.Mutex
}

// NewRemote builds a coordinator over len(addrs) worker shards.
func NewRemote(eng *core.Engine, addrs []string) (*Remote, error) {
	smap, err := part.NewShardMap(eng.Plan(), len(addrs))
	if err != nil {
		return nil, err
	}
	return &Remote{eng: eng, smap: smap, addrs: addrs, m: newMetrics(len(addrs))}, nil
}

// NumShards returns the worker count.
func (r *Remote) NumShards() int { return len(r.addrs) }

// Map returns the coordinator's two-level VID→(shard, VP) mapping.
func (r *Remote) Map() *part.ShardMap { return r.smap }

// MetricsReport snapshots the coordinator's aggregate of the workers'
// per-run counter trailers.
func (r *Remote) MetricsReport() *obs.Report { return r.m.Report() }

// RunMixed executes the cohorts across the worker shards; trajectories
// are bitwise-identical to the in-process Topology and to the
// single-engine RunMixed. Specs with Custom or History transitions are
// rejected — function values cannot cross the wire.
func (r *Remote) RunMixed(ctx context.Context, cohorts []core.Cohort) (*core.MixedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range cohorts {
		if cohorts[i].Spec.Custom != nil || cohorts[i].Spec.History != nil {
			return nil, fmt.Errorf("shard: cohort %d: Custom/History transitions cannot run on remote shards", i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	p, err := place(r.eng, r.smap, cohorts)
	if err != nil {
		return nil, err
	}

	pos := p.newPositions()

	hdr := runHeader{Cohorts: make([]wireCohort, len(p.cohorts))}
	for k, c := range p.cohorts {
		hdr.Cohorts[k] = wireCohort{Walkers: c.Walkers, Steps: c.Steps, Seed: c.Seed, Spec: toWireSpec(&c.Spec)}
	}
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}

	S := len(r.addrs)
	conns := make([]net.Conn, S)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	d := net.Dialer{}
	for s := 0; s < S; s++ {
		conn, err := d.DialContext(ctx, "tcp", r.addrs[s])
		if err != nil {
			return nil, fmt.Errorf("shard: dialing worker %d at %s: %w", s, r.addrs[s], err)
		}
		conns[s] = conn
		bw := bufio.NewWriter(conn)
		if err := writeFrame(bw, frameRun, hdrJSON); err != nil {
			return nil, err
		}
		scratch := make([]graph.VID, 0, initChunkWords)
		ids, ws := p.ids[s], p.w[s]
		for off := 0; off < len(ids); off += initChunkWords / 2 {
			end := min(off+initChunkWords/2, len(ids))
			scratch = scratch[:0]
			for i := off; i < end; i++ {
				scratch = append(scratch, graph.VID(ids[i]), ws[i])
			}
			if err := writeFrame(bw, frameInit, vidsToBytes(scratch)); err != nil {
				return nil, err
			}
		}
		if err := writeFrame(bw, frameGo, nil); err != nil {
			return nil, err
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}

	// Gather concurrently: each worker streams path fragments, then a
	// DONE trailer (or an ERR). Workers write disjoint walker ids at
	// every step, so the shared matrices never race.
	stop := context.AfterFunc(ctx, func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	})
	defer stop()
	errs := make([]error, S)
	trailers := make([]doneTrailer, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = r.gather(conns[s], p, pos, &trailers[s])
			if errs[s] != nil && ctx.Err() != nil {
				errs[s] = ctx.Err()
			}
		}(s)
	}
	wg.Wait()
	for s := 0; s < S; s++ {
		if errs[s] != nil {
			return nil, fmt.Errorf("shard: worker %d: %w", s, errs[s])
		}
	}

	res, err := assemble(p, pos, r.eng.Plan().NumVPs(), start)
	if err != nil {
		return nil, err
	}
	for s := 0; s < S; s++ {
		t := &trailers[s]
		for vp, n := range t.VPSteps {
			if vp < len(res.VPSteps) {
				res.VPSteps[vp] += n
			}
		}
		r.m.Emigrants.Add(s, t.Emigrants)
		r.m.Immigrants.Add(s, t.Immigrants)
		r.m.Frames.Add(s, t.Frames)
		r.m.FrameWords.Add(s, t.FrameWords)
	}
	r.m.Runs.Inc()
	return res, nil
}

// gather drains one worker's response stream into the position
// matrices.
func (r *Remote) gather(conn net.Conn, p *placement, pos [][]graph.VID, trailer *doneTrailer) error {
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case framePaths:
			vs, err := bytesToVIDs(payload)
			if err != nil || len(vs)%3 != 0 {
				return fmt.Errorf("shard: malformed paths frame")
			}
			for i := 0; i < len(vs); i += 3 {
				step, id, v := uint64(vs[i]), uint64(vs[i+1]), vs[i+2]
				k := p.cohortOf(id) // len(p.cohorts) past the run's ids
				if k == len(p.cohorts) || step < 1 || step > uint64(p.cohorts[k].Steps) {
					return fmt.Errorf("shard: paths frame out of range (step %d, id %d)", step, id)
				}
				pos[k][step*p.cohorts[k].Walkers+id-p.starts[k]] = v
			}
		case frameDone:
			return json.Unmarshal(payload, trailer)
		case frameErr:
			return errors.New(string(payload))
		default:
			return fmt.Errorf("shard: unexpected frame 0x%02x from worker", typ)
		}
	}
}
