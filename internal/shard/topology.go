package shard

import (
	"context"
	"sync"
	"time"

	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// Topology runs sharded mixed walks with every shard in-process: one
// engine build shared by all shards (each shard only ever samples the
// partitions it owns, so sharing the immutable build costs nothing and
// keeps memory flat), per-shard sessions off the engine's pool (each
// session is its shard's stepper), and a ChanMesh exchange. Safe for
// concurrent RunMixed calls — each run gets its own mesh and sessions —
// which is what lets the serving layer drive one Topology from many
// executors.
type Topology struct {
	eng    *core.Engine
	smap   *part.ShardMap
	m      *Metrics
	shards int
}

// New builds an in-process sharded topology over the engine's plan.
func New(eng *core.Engine, shards int) (*Topology, error) {
	smap, err := part.NewShardMap(eng.Plan(), shards)
	if err != nil {
		return nil, err
	}
	return &Topology{eng: eng, smap: smap, m: newMetrics(shards), shards: shards}, nil
}

// NumShards returns the shard count.
func (t *Topology) NumShards() int { return t.shards }

// Map returns the topology's two-level VID→(shard, VP) mapping.
func (t *Topology) Map() *part.ShardMap { return t.smap }

// Engine returns the shared engine build.
func (t *Topology) Engine() *core.Engine { return t.eng }

// MetricsReport snapshots the topology's shard metrics (emigrants,
// frames, supersteps), accumulated across every run so far.
func (t *Topology) MetricsReport() *obs.Report { return t.m.Report() }

// RunMixed executes the cohorts across the shards and returns the same
// result shape as core's RunMixed, histories always recorded (the
// trajectories are the product of a sharded run). Trajectories are
// bitwise-identical to Engine.RunMixed with the same cohorts, for any
// shard count.
func (t *Topology) RunMixed(ctx context.Context, cohorts []core.Cohort) (*core.MixedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	p, err := place(t.eng, t.smap, cohorts)
	if err != nil {
		return nil, err
	}

	// Shared position matrices: shards own disjoint ids at every step, so
	// the writes never race; the final Wait orders them before assembly
	// reads.
	pos := p.newPositions()

	mesh := NewChanMesh(t.shards)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	vpSteps := make([][]uint64, t.shards)
	for s := 0; s < t.shards; s++ {
		r := &shardRun{
			self: s, eng: t.eng, smap: t.smap, tr: mesh.Bind(s), m: t.m,
			wave: p.wave, ids: p.ids[s], w: p.w[s],
			vpSteps: make([]uint64, t.eng.Plan().NumVPs()),
		}
		vpSteps[s] = r.vpSteps
		r.record = func(k, step int, ids []uint32, w []graph.VID) {
			row, first := pos[k][uint64(step)*p.cohorts[k].Walkers:], p.starts[k]
			for j, id := range ids {
				row[uint64(id)-first] = w[j]
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.run(runCtx); err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res, err := assemble(p, pos, t.eng.Plan().NumVPs(), start)
	if err != nil {
		return nil, err
	}
	for s := range vpSteps {
		for vp, n := range vpSteps[s] {
			res.VPSteps[vp] += n
		}
	}
	if t.m != nil {
		t.m.Runs.Inc()
	}
	return res, nil
}

// assemble folds the position matrices into a core.MixedResult with
// per-cohort histories, cohorts in caller order: cohort k's history is
// row views of its step-major matrix pos[k], not a copy.
func assemble(p *placement, pos [][]graph.VID, nvp int, start time.Time) (*core.MixedResult, error) {
	res := &core.MixedResult{
		Cohorts: make([]core.CohortResult, len(p.cohorts)),
		VPSteps: make([]uint64, nvp),
	}
	for k, c := range p.cohorts {
		n := int(c.Walkers)
		rows := make([][]graph.VID, c.Steps+1)
		for step := range rows {
			rows[step] = pos[k][step*n : (step+1)*n]
		}
		h, err := walk.NewHistory(rows)
		if err != nil {
			return nil, err
		}
		res.Cohorts[p.order[k]] = core.CohortResult{
			Walkers:    c.Walkers,
			Steps:      c.Steps,
			TotalSteps: c.Walkers * uint64(c.Steps),
			History:    h,
		}
		res.Walkers += c.Walkers
		res.TotalSteps += c.Walkers * uint64(c.Steps)
	}
	res.Duration = time.Since(start)
	res.OtherTime = res.Duration
	return res, nil
}
