package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// wave is one sharded run's cohorts laid out as the single engine lays
// them out: in core.ExecutionOrder, slot k running the caller's cohort
// order[k], with global walker ids — slot k owns [starts[k],
// starts[k+1]). Every shard's local array is the ascending-id
// subsequence of that layout, so it is cohort-major and each superstep's
// still-active cohorts are a prefix of it, as in the engine's run driver.
type wave struct {
	cohorts  []core.Cohort
	order    []int
	starts   []uint64
	channels int // the run's widest aux channel count
}

// newWave resolves cohorts under RunMixed's rules (eng.ResolveCohorts)
// plus the wire's bound: walker ids travel as 32-bit words, so the run's
// total walkers must fit the 32-bit id space.
func newWave(eng *core.Engine, cohorts []core.Cohort) (*wave, error) {
	resolved, channels, err := eng.ResolveCohorts(cohorts)
	if err != nil {
		return nil, err
	}
	order := core.ExecutionOrder(resolved)
	wv := &wave{order: order, starts: []uint64{0}, channels: channels}
	for _, i := range order {
		c := resolved[i]
		// Both terms are at most 2^32-1 here, so the sum cannot wrap.
		total := wv.total()
		if c.Walkers > math.MaxUint32 || total+c.Walkers > math.MaxUint32 {
			return nil, fmt.Errorf("shard: the run's walkers exceed the 32-bit id space (cohort %d has %d)", i, c.Walkers)
		}
		wv.cohorts = append(wv.cohorts, c)
		wv.starts = append(wv.starts, total+c.Walkers)
	}
	return wv, nil
}

// total returns the run's walker count, one past its largest id.
func (wv *wave) total() uint64 { return wv.starts[len(wv.starts)-1] }

// cohortOf returns the slot owning global walker id, or len(cohorts)
// when id is at or past the run's total.
func (wv *wave) cohortOf(id uint64) int {
	return sort.Search(len(wv.cohorts), func(k int) bool { return wv.starts[k+1] > id })
}

// activeAt returns how many slots still step at superstep t: the cohorts
// are longest walk first, so those are a prefix.
func (wv *wave) activeAt(t int) int {
	return sort.Search(len(wv.cohorts), func(k int) bool { return wv.cohorts[k].Steps <= t })
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
	self int
	eng  *core.Engine
	smap *part.ShardMap
	tr   Transport
	m    *Metrics
	wave *wave
	// ids and w are the shard's initial walkers — those whose start
	// vertex it owns — ascending by global id. run takes ownership.
	ids []uint32
	w   []graph.VID
	// record observes slot k's local walkers after step `step` (1-based;
	// step 0 is the init row the placer already knows), ids global.
	// In-process shards write disjoint rows of shared position matrices;
	// TCP workers accumulate (step, id, v) fragments for the coordinator.
	record func(k, step int, ids []uint32, w []graph.VID)
	// vpSteps receives the shard's per-partition walker-step counts.
	vpSteps []uint64
}

// run executes the superstep loop on one engine session, the shard's
// stepper: slot k is bound to the wave's k-th cohort, and each superstep
// is one Session.Step over every still-active local walker — the wave
// step the engine's run driver takes — followed by one exchange round
// carrying every cohort's emigrants. Three generations of each array
// rotate: cur (ids, w, aux), next (the step's output) and ex (the
// exchange's merged output, which becomes cur); each grows (see fit) to
// the largest local population the shard meets, not to the run's walker
// count. Every shard computes the same active prefix per superstep, so
// the exchange rounds pair up across the mesh. Cohorts finishing at a
// step are the local suffix: they are recorded and not exchanged — a
// walker crossing shards as it finishes is a finished walker, not a
// message.
func (r *shardRun) run(ctx context.Context) error {
	sess, err := r.eng.NewSession(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	wv := r.wave
	for k := range wv.cohorts {
		if err := sess.BindCohort(k, &wv.cohorts[k]); err != nil {
			return err
		}
	}
	ex := NewExchange(r.self, r.smap, r.tr, r.m, wv.total(), wv.channels)

	ids, w := r.ids, r.w
	var idsEx []uint32
	var wNext, wEx []graph.VID
	// Aux channels start as the walker's own start vertex, exactly as the
	// engine initializes them.
	aux := make([][]graph.VID, wv.channels)
	auxNext := make([][]graph.VID, wv.channels)
	auxEx := make([][]graph.VID, wv.channels)
	for c := range aux {
		aux[c] = slices.Clone(w)
	}
	offs := make([]uint64, len(wv.cohorts)+1)
	for t, active := 0, wv.activeAt(0); active > 0; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.m != nil {
			r.m.Supersteps.Inc()
		}
		// Local segment k holds the ids in [starts[k], starts[k+1]).
		for k := 0; k <= active; k++ {
			id := wv.starts[k]
			offs[k] = uint64(sort.Search(len(ids), func(j int) bool { return uint64(ids[j]) >= id }))
		}
		n := int(offs[active])
		wNext = fit(wNext, n)
		for c := range auxNext {
			auxNext[c] = fit(auxNext[c], n)
		}
		if err := sess.Step(t, offs[:active+1], w, wNext, aux, auxNext); err != nil {
			return err
		}
		for k := 0; k < active; k++ {
			r.record(k, t+1, ids[offs[k]:offs[k+1]], wNext[offs[k]:offs[k+1]])
		}
		if active = wv.activeAt(t + 1); active == 0 {
			break
		}
		// Move fits the out slices to the post-exchange count; it refits
		// auxEx's channel slices in place.
		moving := offs[active]
		b := batch{
			ids: ids[:moving], w: wNext[:moving], aux: auxNext,
			outIDs: idsEx, out: wEx, outAux: auxEx,
		}
		if err := ex.Move(ctx, &b); err != nil {
			return err
		}
		ids, idsEx = b.outIDs, ids
		w, wEx = b.out, w
		aux, auxEx = auxEx, aux
	}
	copy(r.vpSteps, sess.VPSteps())
	return nil
}

// placement is the deterministic global init of one run: per slot, the
// full start-vertex array (row 0 of its history), and per shard the
// ascending-id scatter of (global id, vertex) onto the owning shards.
type placement struct {
	*wave
	// row0[k] is slot k's global start positions.
	row0 [][]graph.VID
	// ids[s] / w[s] are shard s's walkers, ascending by global id.
	ids [][]uint32
	w   [][]graph.VID
}

// place computes the single-engine init (core.InitWalkersSeeded — the
// same placement RunMixed draws) and scatters each walker to the shard
// owning its start vertex. The ascending-id scan keeps every shard's
// local array the id-ordered subsequence of the global one.
func place(eng *core.Engine, smap *part.ShardMap, cohorts []core.Cohort) (*placement, error) {
	wv, err := newWave(eng, cohorts)
	if err != nil {
		return nil, err
	}
	S := smap.NumShards()
	p := &placement{
		wave: wv,
		row0: make([][]graph.VID, len(wv.cohorts)),
		ids:  make([][]uint32, S),
		w:    make([][]graph.VID, S),
	}
	for k, c := range wv.cohorts {
		wAll := make([]graph.VID, c.Walkers)
		eng.InitWalkersSeeded(c.Seed, wAll)
		p.row0[k] = wAll
		for j, v := range wAll {
			s := smap.ShardOf(v)
			p.ids[s] = append(p.ids[s], uint32(wv.starts[k]+uint64(j)))
			p.w[s] = append(p.w[s], v)
		}
	}
	return p, nil
}

// newPositions allocates the run's position matrices, pos[k][step*walkers
// + (id-starts[k])] for slot k, with row 0 filled from the placement.
func (p *placement) newPositions() [][]graph.VID {
	pos := make([][]graph.VID, len(p.cohorts))
	for k, c := range p.cohorts {
		pos[k] = make([]graph.VID, int(c.Walkers)*(c.Steps+1))
		copy(pos[k][:c.Walkers], p.row0[k])
	}
	return pos
}
