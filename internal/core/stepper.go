package core

import (
	"fmt"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// InitWalkersSeeded fills w with the start placement a solo RunSeeded
// (episode 0) or a mixed-run cohort with this seed would use: every init
// mode draws from the same derived source, so a sharded topology that
// places walkers centrally and scatters them by owner reproduces the
// single-engine placement exactly.
func (e *Engine) InitWalkersSeeded(seed uint64, w []graph.VID) {
	e.initEpisode(seed, 0, w)
}

// initEpisode places one episode's walkers in w from the run seed and the
// episode index.
func (e *Engine) initEpisode(seed uint64, episode int, w []graph.VID) {
	e.initWalkers(w, rng.NewXorShift1024Star(rng.Mix64(seed^0x9e3779b97f4a7c15)+uint64(episode)))
}

// AuxChannelsFor returns the aux (predecessor) channel count walkers of
// the spec carry through the shuffle: k-1 for order-k history walks, 1
// for node2vec, 0 otherwise. Exported so the sharded topology and its
// wire protocol size per-walker records without re-deriving the rule.
func AuxChannelsFor(sp *algo.Spec) int { return auxChannelsFor(sp) }

// Stepper is the engine's single pipeline step, the one place a step is
// executed and timed:
//
//	W --forward shuffle--> SW --sample (in place)--> SW' --reverse gather--> W'
//
// It owns the shuffler, the shuffled intermediates SW and their aux
// channels, the per-partition step counts, and the stage timings and
// per-step metrics. Three drivers run over it: RunSeeded steps the
// session's primary context episode by episode; RunMixed steps the
// active cohorts' prefix of one shared walker array, retiring cohorts by
// passing a shorter one; and the sharded topology (internal/shard)
// advances its local walkers one cohort-step at a time through Step,
// handing emigrants to the cross-shard exchange in between. Sample seeds
// key on global partition indices and chunk-local sub-shard offsets, so
// every driver draws the same randomness for the same walkers.
//
// A Stepper belongs to its Session and follows the same discipline: one
// goroutine, one Step at a time. The walker arrays are the caller's —
// the stepper only owns the shuffled intermediates.
type Stepper struct {
	s        *Session
	shuffler *walk.Shuffler
	cur      int // current shuffler size, to skip redundant Resizes
	sw       []graph.VID
	auxSW    [][]graph.VID
	views    [][]graph.VID // per-call channel views of auxSW, reused
	vpSteps  []uint64
	times    StageTimes

	// Cohort slots bound through BindCohort, and the one-cohort context
	// and seed-prefix lists that Step and solo runs sample under.
	slots    []*cohortState
	specs    []*algo.Spec
	cxs      []*cohortCtx
	prefixes []uint64
}

// newStepper builds a stepper for up to maxWalkers walkers carrying up
// to channels aux channels, with no cohort slots.
func (s *Session) newStepper(maxWalkers, channels int) (*Stepper, error) {
	e := s.e
	shuffler, err := walk.NewShufflerPool(e.plan, maxWalkers, e.pool)
	if err != nil {
		return nil, err
	}
	if s.m != nil {
		shuffler.SetPprofLabels(true)
		shuffler.SetPoolMetrics(s.m.pool)
	}
	st := &Stepper{
		s:        s,
		shuffler: shuffler,
		cur:      maxWalkers,
		sw:       make([]graph.VID, maxWalkers),
		auxSW:    make([][]graph.VID, channels),
		views:    make([][]graph.VID, 0, channels),
		vpSteps:  make([]uint64, e.plan.NumVPs()),
		cxs:      make([]*cohortCtx, 1),
		prefixes: make([]uint64, 1),
	}
	for c := range st.auxSW {
		st.auxSW[c] = make([]graph.VID, maxWalkers)
	}
	return st, nil
}

// NewStepper builds a per-step driver sized for maxWalkers walkers,
// channels aux channels, and the given number of cohort slots. The
// session's pooled cohort state backs the slots, so steppers acquired
// across runs on one session reuse their PS buffers (reset on every
// plan-template bind).
func (s *Session) NewStepper(maxWalkers, channels, cohorts int) (*Stepper, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if maxWalkers <= 0 {
		return nil, fmt.Errorf("core: stepper needs a positive walker capacity")
	}
	if cohorts <= 0 {
		return nil, fmt.Errorf("core: stepper needs at least one cohort slot")
	}
	st, err := s.newStepper(maxWalkers, channels)
	if err != nil {
		return nil, err
	}
	st.slots = s.cohortSlots(cohorts)
	st.specs = make([]*algo.Spec, cohorts)
	return st, nil
}

// BindCohort arms slot k for a cohort of the given spec and walker
// count, exactly as a mixed run binds its cohorts: the kernel template
// is the one the count selects against the build's sparse switch, copied
// for the spec's weighting, with PS buffers reset to empty when it is the
// plan's. walkers is the cohort's global count — a shard passes the
// cohort's resolved Walkers, not its fluctuating local population, so
// every shard binds what a single engine would. Admission follows
// RunMixed's rules (ResolveCohorts, and the overlay's spec restriction
// on an overlay session). The spec must stay alive and unmodified while
// bound.
func (st *Stepper) BindCohort(k int, spec *algo.Spec, walkers uint64) error {
	s := st.s
	if k < 0 || k >= len(st.specs) {
		return fmt.Errorf("core: cohort slot %d out of range [0, %d)", k, len(st.specs))
	}
	if _, _, err := s.e.ResolveCohorts([]Cohort{{Spec: *spec, Walkers: 1, Steps: 1}}); err != nil {
		return err
	}
	if s.ov != nil {
		if err := checkOverlaySpec(spec); err != nil {
			return err
		}
	}
	if ch := auxChannelsFor(spec); ch > len(st.auxSW) {
		return fmt.Errorf("core: spec needs %d aux channels but the stepper was built with %d", ch, len(st.auxSW))
	}
	st.slots[k].bind(s, spec, walkers)
	st.specs[k] = spec
	return nil
}

// Step advances cohort k's walkers in w by one step: w is forward-
// shuffled into partition order, sampled in place under the cohort's
// context with the (seed, episode 0, step) item-seed schedule, and
// reverse-gathered into wNext. aux/auxNext carry the cohort's
// predecessor channels (exactly AuxChannelsFor of its spec) and are
// permuted identically with the walkers. len(w) may differ call to call
// — up to the stepper's capacity — which is how the sharded topology
// steps a fluctuating local walker population.
func (st *Stepper) Step(k int, seed uint64, step int, w, wNext []graph.VID, aux, auxNext [][]graph.VID) error {
	s := st.s
	if s.closed {
		return ErrClosed
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if k < 0 || k >= len(st.specs) || st.specs[k] == nil {
		return fmt.Errorf("core: cohort slot %d is not bound", k)
	}
	n := len(w)
	if len(wNext) != n {
		return fmt.Errorf("core: walker arrays disagree: %d vs %d", n, len(wNext))
	}
	if n > len(st.sw) {
		return fmt.Errorf("core: %d walkers exceed the stepper's %d capacity", n, len(st.sw))
	}
	channels := auxChannelsFor(st.specs[k])
	if len(aux) != channels || len(auxNext) != channels {
		return fmt.Errorf("core: spec carries %d aux channels, got %d in / %d out", channels, len(aux), len(auxNext))
	}
	for c := 0; c < channels; c++ {
		if len(aux[c]) != n || len(auxNext[c]) != n {
			return fmt.Errorf("core: aux channel %d length disagrees with %d walkers", c, n)
		}
	}
	if n == 0 {
		return nil
	}
	st.cxs[0] = &st.slots[k].cx
	st.prefixes[0] = SampleSeedPrefix(seed, 0, step)
	return st.step(w, wNext, aux, auxNext, st.cxs, st.prefixes, nil)
}

// step runs one pipeline step over the n = len(w) walkers in w, writing
// their successors to wNext and carrying len(aux) aux channels. cxs,
// prefixes and lay describe the cohorts the walkers belong to (see
// sampleTask.run); lay is nil for a single cohort.
func (st *Stepper) step(w, wNext []graph.VID, aux, auxNext [][]graph.VID, cxs []*cohortCtx, prefixes []uint64, lay *cohortLayout) error {
	s := st.s
	n := len(w)
	if n != st.cur {
		if err := st.shuffler.Resize(n); err != nil {
			return err
		}
		st.cur = n
	}
	sw := st.sw[:n]
	views := st.views[:0]
	for c := range aux {
		views = append(views, st.auxSW[c][:n])
	}
	st.views = views

	t0 := time.Now()
	if err := st.shuffler.ForwardMulti(w, sw, aux, views); err != nil {
		return err
	}
	t1 := time.Now()
	s.sample.run(st.shuffler.Chunks(), sw, views, st.vpSteps, cxs, prefixes, lay)
	t2 := time.Now()
	if err := st.shuffler.ReverseMulti(w, sw, wNext, views, auxNext); err != nil {
		return err
	}
	t3 := time.Now()
	st.times.ShuffleFwdTime += t1.Sub(t0)
	st.times.SampleTime += t2.Sub(t1)
	st.times.ShuffleRevTime += t3.Sub(t2)
	if m := s.m; m != nil {
		m.steps.Inc()
		m.shuffleFwdStepNS.Observe(uint64(t1.Sub(t0)))
		m.sampleStepNS.Observe(uint64(t2.Sub(t1)))
		m.shuffleRevStepNS.Observe(uint64(t3.Sub(t2)))
	}
	return nil
}

// VPSteps returns the per-partition walker-step counts accumulated
// across the stepper's Steps (the Figure 10b weighting, per shard).
func (st *Stepper) VPSteps() []uint64 { return st.vpSteps }
