package shard

import (
	"context"
	"fmt"
	"math"
	"slices"

	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// shardCohort is one cohort's per-shard walker state. Three generations
// of each channel rotate through a superstep: cur (pre-step), next (the
// step's output scratch), and ex (the exchange's merged output, which
// becomes cur). Each starts at the shard's initial population and grows
// (see fit) to the largest local population the shard meets, so a shard
// holds memory for the walkers it actually receives, not for the run
// header's walker count; n tracks the live prefix.
type shardCohort struct {
	n                   int
	ids, idsEx          []uint32
	w, wNext, wEx       []graph.VID
	aux, auxNext, auxEx [][]graph.VID
	views, viewsNext    [][]graph.VID // per-step channel views, reused
}

// newShardCohort seeds a cohort's local set from (ids, w) — the
// id-ordered members whose start vertex this shard owns — taking
// ownership of both slices. Aux channels start as the walker's own
// start vertex, exactly as the engine initializes them.
func newShardCohort(channels int, ids []uint32, w []graph.VID) *shardCohort {
	co := &shardCohort{
		n:         len(ids),
		ids:       ids,
		w:         w,
		views:     make([][]graph.VID, channels),
		viewsNext: make([][]graph.VID, channels),
		auxNext:   make([][]graph.VID, channels),
		auxEx:     make([][]graph.VID, channels),
	}
	for c := 0; c < channels; c++ {
		co.aux = append(co.aux, slices.Clone(w))
	}
	return co
}

// fit returns s resliced to length n, replacing it — contents dropped —
// when its capacity is short. Every caller overwrites all n elements.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// shardRun executes one shard's side of a sharded mixed run: the
// superstep loop every shard (in-process goroutine or TCP worker
// process) runs in lockstep.
type shardRun struct {
	self     int
	eng      *core.Engine
	smap     *part.ShardMap
	tr       Transport
	m        *Metrics
	resolved []core.Cohort
	channels int
	coh      []*shardCohort
	// record observes cohort k's local walkers after step `step`
	// (1-based; step 0 is the init row the placer already knows).
	// In-process shards write disjoint rows of shared position matrices;
	// TCP workers accumulate (step, id, v) fragments for the coordinator.
	record func(k, step int, ids []uint32, w []graph.VID) error
	// vpSteps receives the shard's per-partition walker-step counts.
	vpSteps []uint64
}

// run executes the superstep loop on one engine session, which is the
// shard's stepper: cohort k is bound to slot k, and each cohort-step is
// one Session.Step over the shard's local walkers, whose step state
// grows to the largest local population it meets. Every shard iterates
// supersteps and cohorts in the same order, so the per-(superstep,
// cohort) exchange rounds pair up across the mesh; a cohort past its
// last step is skipped identically everywhere. The exchange is skipped
// after a cohort's final step — a walker crossing shards as it finishes
// is a finished walker, not a message.
func (r *shardRun) run(ctx context.Context) error {
	sess, err := r.eng.NewSession(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	maxSteps := 0
	for k, c := range r.resolved {
		maxSteps = max(maxSteps, c.Steps)
		if err := sess.BindCohort(k, &r.resolved[k].Spec, c.Walkers); err != nil {
			return err
		}
	}
	ex := NewExchange(r.self, r.smap, r.tr, r.m)

	for t := 0; t < maxSteps; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.m != nil {
			r.m.Supersteps.Inc()
		}
		for k := range r.resolved {
			c := &r.resolved[k]
			if t >= c.Steps {
				continue
			}
			co := r.coh[k]
			n := co.n
			channels := core.AuxChannelsFor(&c.Spec)
			co.wNext = fit(co.wNext, n)
			views, viewsNext := co.views[:0], co.viewsNext[:0]
			for ch := 0; ch < channels; ch++ {
				co.auxNext[ch] = fit(co.auxNext[ch], n)
				views = append(views, co.aux[ch][:n])
				viewsNext = append(viewsNext, co.auxNext[ch])
			}
			co.views, co.viewsNext = views, viewsNext
			if err := sess.Step(k, c.Seed, t, co.w[:n], co.wNext, views, viewsNext); err != nil {
				return err
			}
			if err := r.record(k, t+1, co.ids[:n], co.wNext); err != nil {
				return err
			}
			if t+1 >= c.Steps {
				continue // final step: walkers finish where they stand
			}
			// Move fits the out slices to the post-exchange count; it
			// refits co.auxEx's channel slices in place.
			b := batch{
				ids: co.ids[:n], w: co.wNext, aux: viewsNext,
				outIDs: co.idsEx, out: co.wEx, outAux: co.auxEx,
			}
			if err := ex.Move(ctx, &b); err != nil {
				return err
			}
			co.n = len(b.out)
			co.ids, co.idsEx = b.outIDs, co.ids
			co.w, co.wEx = b.out, co.w
			for ch := 0; ch < channels; ch++ {
				co.aux[ch], co.auxEx[ch] = co.auxEx[ch], co.aux[ch]
			}
		}
	}
	copy(r.vpSteps, sess.VPSteps())
	return nil
}

// placement is the deterministic global init of one run: per cohort, the
// full start-vertex array (row 0 of its history) and the id-ordered
// scatter of (id, vertex) onto owning shards.
type placement struct {
	resolved []core.Cohort
	channels int
	// row0[k] is cohort k's global start positions.
	row0 [][]graph.VID
	// ids[s][k] / w[s][k] are shard s's members of cohort k, ascending.
	ids [][][]uint32
	w   [][][]graph.VID
}

// resolveCohorts is eng.ResolveCohorts plus the wire's bound: walker ids
// travel as 32-bit words, so no cohort may exceed the 32-bit id space.
func resolveCohorts(eng *core.Engine, cohorts []core.Cohort) ([]core.Cohort, int, error) {
	resolved, channels, err := eng.ResolveCohorts(cohorts)
	if err != nil {
		return nil, 0, err
	}
	for k, c := range resolved {
		if c.Walkers > math.MaxUint32 {
			return nil, 0, fmt.Errorf("shard: cohort %d's %d walkers exceed the 32-bit id space", k, c.Walkers)
		}
	}
	return resolved, channels, nil
}

// place computes the single-engine init (core.InitWalkersSeeded — the
// same placement RunMixed draws) and scatters each cohort's walkers to
// the shard owning their start vertex. The ascending-id scan keeps every
// shard's local array the id-ordered subsequence of the global one.
func place(eng *core.Engine, smap *part.ShardMap, cohorts []core.Cohort) (*placement, error) {
	resolved, channels, err := resolveCohorts(eng, cohorts)
	if err != nil {
		return nil, err
	}
	S := smap.NumShards()
	p := &placement{
		resolved: resolved,
		channels: channels,
		row0:     make([][]graph.VID, len(resolved)),
		ids:      make([][][]uint32, S),
		w:        make([][][]graph.VID, S),
	}
	for s := 0; s < S; s++ {
		p.ids[s] = make([][]uint32, len(resolved))
		p.w[s] = make([][]graph.VID, len(resolved))
	}
	for k, c := range resolved {
		wAll := make([]graph.VID, c.Walkers)
		eng.InitWalkersSeeded(c.Seed, wAll)
		p.row0[k] = wAll
		for j, v := range wAll {
			s := smap.ShardOf(v)
			p.ids[s][k] = append(p.ids[s][k], uint32(j))
			p.w[s][k] = append(p.w[s][k], v)
		}
	}
	return p, nil
}
