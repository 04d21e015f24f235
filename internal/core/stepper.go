package core

import (
	"fmt"
	"slices"
	"time"

	"flashmob/internal/graph"
	"flashmob/internal/obs"
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

// cohortSlots grows the session's cohort slots, with their context
// pointers and seed prefixes, to n and returns the first n slots.
func (s *Session) cohortSlots(n int) []*cohortState {
	for len(s.cohorts) < n {
		cs := &cohortState{}
		s.cohorts = append(s.cohorts, cs)
		s.cxs = append(s.cxs, &cs.cx)
		s.prefixes = append(s.prefixes, 0)
	}
	return s.cohorts[:n]
}

// BindCohort arms cohort slot k for the resolved cohort c, exactly as a
// run binds its cohorts: the kernel template is the one c.Walkers
// selects against the build's sparse switch, copied for the spec's
// weighting, with PS buffers reset to empty when it is the plan's, and
// c.Seed keys the slot's item seeds. c.Walkers is the cohort's global
// count — a shard binds the cohort's resolved Walkers, not its
// fluctuating local population, so every shard binds what a single
// engine would. Admission follows RunMixed's rules (ResolveCohorts, and
// the overlay's spec restriction on an overlay session). Slots are
// created on demand; a slot stays bound until it is rebound, a run on
// the session binds it, or the session is reacquired. c.Spec must stay
// alive and unmodified while bound.
func (s *Session) BindCohort(k int, c *Cohort) error {
	if s.closed {
		return ErrClosed
	}
	if k < 0 {
		return fmt.Errorf("core: negative cohort slot %d", k)
	}
	if _, _, err := s.e.ResolveCohorts([]Cohort{{Spec: c.Spec, Walkers: 1, Steps: 1}}); err != nil {
		return err
	}
	if s.ov != nil {
		if err := checkOverlaySpec(&c.Spec); err != nil {
			return err
		}
	}
	s.cohortSlots(k + 1)[k].bind(s, &c.Spec, c.Walkers, c.Seed)
	return nil
}

// Step advances one wave by one step at episode 0 — the step a run's
// driver takes: the bound slots [0, len(offs)-1) step their segments
// w[offs[k]:offs[k+1]], which are forward-shuffled together into
// partition order, sampled in place under each slot's context and
// (seed, 0, step) item-seed schedule, and reverse-gathered into wNext.
// offs starts at 0 and ascends; w, wNext and every aux/auxNext channel
// hold at least its last offset's walkers, and aux/auxNext carry at
// least the widest bound slot's aux channel count, permuted
// identically with the walkers. The wave may differ call to call — the
// session's step state grows to the largest — which is how the sharded
// topology steps a fluctuating local walker population. The walker
// arrays are the caller's; the session owns only the shuffled
// intermediates.
func (s *Session) Step(step int, offs []uint64, w, wNext []graph.VID, aux, auxNext [][]graph.VID) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if len(offs) < 2 || offs[0] != 0 || len(offs) > len(s.cohorts)+1 {
		return fmt.Errorf("core: wave offsets must start at 0 and bound 1 to %d slots", len(s.cohorts))
	}
	channels := 0
	for k, cs := range s.cohorts[:len(offs)-1] {
		if cs.cx.spec == nil || offs[k+1] < offs[k] {
			return fmt.Errorf("core: cohort slot %d is not bound or its segment descends", k)
		}
		channels = max(channels, auxChannelsFor(cs.cx.spec))
	}
	n := offs[len(offs)-1]
	if uint64(len(w)) < n || uint64(len(wNext)) < n {
		return fmt.Errorf("core: walker arrays of %d and %d hold fewer than %d walkers", len(w), len(wNext), n)
	}
	if len(aux) < channels || len(auxNext) != len(aux) {
		return fmt.Errorf("core: wave carries %d aux channels, got %d in / %d out", channels, len(aux), len(auxNext))
	}
	for c := range aux {
		if uint64(len(aux[c])) < n || uint64(len(auxNext[c])) < n {
			return fmt.Errorf("core: aux channel %d holds fewer than %d walkers", c, n)
		}
	}
	if n == 0 {
		return nil
	}
	return s.waveStep(0, step, offs, w, wNext, aux, auxNext)
}

// waveStep is the one wave step, Step's and drive's: slots [0,
// len(offs)-1) step their segments w[offs[k]:offs[k+1]] under
// sampleSeedPrefix(slot seed, episode, step), with the cohort layout
// counted when several slots share the step.
func (s *Session) waveStep(episode, step int, offs []uint64, w, wNext []graph.VID, aux, auxNext [][]graph.VID) error {
	active := len(offs) - 1
	n := int(offs[active])
	for k := 0; k < active; k++ {
		s.prefixes[k] = sampleSeedPrefix(s.cohorts[k].seed, episode, step)
	}
	var lay *cohortLayout
	if active > 1 {
		s.lay.grow(active, s.e.plan.NumVPs())
		s.lay.count(s.e.plan.Lookup(), w, offs)
		lay = &s.lay
	}
	s.in, s.out = channelViews(s.in, aux, n), channelViews(s.out, auxNext, n)
	return s.step(w[:n], wNext[:n], s.in, s.out, s.cxs[:active], s.prefixes[:active], lay)
}

// VPSteps returns the per-partition walker-step counts accumulated by
// the steps since the session's last run start or acquisition (the
// Figure 10b weighting, per shard). The slice is the session's own and
// restarts from zero with the next run: copy it to keep it.
func (s *Session) VPSteps() []uint64 { return s.vpSteps }

// step is the engine's single pipeline step, the one place a step is
// executed and timed:
//
//	W --forward shuffle--> SW --sample (in place)--> SW' --reverse gather--> W'
//
// over the n = len(w) walkers in w, writing their successors to wNext
// and carrying len(aux) aux channels. cxs, prefixes and lay describe the
// cohorts the walkers belong to (see sampleTask.run); lay is nil for a
// single cohort. The shuffler and shuffled intermediates are built on
// the session's first step and grown in place past their high-water
// mark; sample seeds key on global partition indices and chunk-local
// sub-shard offsets, so every driver draws the same randomness for the
// same walkers.
func (s *Session) step(w, wNext []graph.VID, aux, auxNext [][]graph.VID, cxs []*cohortCtx, prefixes []uint64, lay *cohortLayout) error {
	n := len(w)
	if s.shuffler == nil {
		sh, err := walk.NewShuffler(s.e.plan, n, s.e.pool)
		if err != nil {
			return err
		}
		sh.SetPprofLabels(s.m != nil)
		sh.SetPoolMetrics(s.poolMetrics())
		s.shuffler = sh
	} else if err := s.shuffler.Resize(n); err != nil {
		return err
	}
	s.sw = grown(s.sw, n)
	s.auxSW = grownChannels(s.auxSW, len(aux), n)
	sw := s.sw[:n]
	s.views = channelViews(s.views, s.auxSW[:len(aux)], n)

	t0 := time.Now()
	if err := s.shuffler.Forward(w, sw, aux, s.views); err != nil {
		return err
	}
	t1 := time.Now()
	if err := s.sample.run(s.shuffler.Chunks(), sw, s.views, s.vpSteps, cxs, prefixes, lay); err != nil {
		return err
	}
	t2 := time.Now()
	if err := s.shuffler.Reverse(w, sw, wNext, s.views, auxNext); err != nil {
		return err
	}
	t3 := time.Now()
	s.times.ShuffleFwdTime += t1.Sub(t0)
	s.times.SampleTime += t2.Sub(t1)
	s.times.ShuffleRevTime += t3.Sub(t2)
	if m := s.m; m != nil {
		m.steps.Inc()
		m.shuffleFwdStepNS.Observe(uint64(t1.Sub(t0)))
		m.sampleStepNS.Observe(uint64(t2.Sub(t1)))
		m.shuffleRevStepNS.Observe(uint64(t3.Sub(t2)))
		if walk.RunsInline(n) || s.e.pool.Workers() == 1 {
			// Every phase ran on this goroutine through pool.Inline,
			// which reads no clock: the step's own span is slot 0's busy
			// time (on a streamed engine, block waits included).
			m.pool.BusyNS.Add(0, uint64(t3.Sub(t0)))
		}
	}
	return nil
}

// drive is the one run driver: it steps one episode of the cohorts
// bound to slots [0, len(cohorts)), whose walker and step counts
// cohorts gives, longest walk first. Cohort k's walkers are segment k of
// the run's walker arrays, placed from slot k's seed and the episode
// index; each step is one waveStep over the still-active cohorts.
// Cohorts whose walks are done retire from the sweep: the active cohorts
// stay a prefix, so the step just shrinks. It returns each cohort's
// history (nil entries unless Config.RecordHistory).
//
// A recording run's walker arrays are its history (§4.3): one flat,
// step-major buffer whose row 0 holds every start and row i+1 the
// walkers still active at step i, so rows shrink as cohorts retire. Each
// step forward-shuffles from row i and reverse-gathers straight into
// row i+1, and each cohort's history is views of its segment of the
// rows; no row is copied, and the session's own walker arrays stay
// untouched. hbuf, when non-nil, is the flat buffer to record into (a
// multi-episode run passes its first episode's buffer to every episode);
// nil allocates one. A run that records nothing ping-pongs the
// session's pair.
func (s *Session) drive(cohorts []Cohort, episode int, hbuf []graph.VID) ([]*walk.History, error) {
	e := s.e
	s.offs = append(s.offs[:0], 0)
	channels := 0
	for k, c := range cohorts {
		s.offs = append(s.offs, s.offs[k]+c.Walkers)
		channels = max(channels, auxChannelsFor(s.cohorts[k].cx.spec))
	}
	offs := s.offs
	total := int(offs[len(cohorts)])
	var rows [][]graph.VID
	var w, wNext []graph.VID
	if e.cfg.RecordHistory {
		rows = historyRows(cohorts, offs, hbuf)
		w = rows[0]
	} else {
		s.w, s.wNext = grown(s.w, total), grown(s.wNext, total)
		w, wNext = s.w, s.wNext
	}
	s.auxW, s.auxNext = grownChannels(s.auxW, channels, total), grownChannels(s.auxNext, channels, total)
	auxW, auxNext := s.auxW[:channels], s.auxNext[:channels]

	// Per-cohort init, the solo formula: a cohort's start placement
	// depends only on its own seed, the episode and its segment length.
	for k := range cohorts {
		seg := w[offs[k]:offs[k+1]]
		e.initEpisode(s.cohorts[k].seed, episode, seg)
		for ch := 0; ch < auxChannelsFor(s.cohorts[k].cx.spec); ch++ {
			// Predecessors start as the walker's own start vertex, which
			// makes the first higher-order step uniform over neighbours.
			copy(auxW[ch][offs[k]:offs[k+1]], seg)
		}
	}
	if s.m != nil {
		s.m.episodes.Inc()
	}
	active := len(cohorts)
	for step := 0; ; step++ {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		for active > 0 && cohorts[active-1].Steps <= step {
			active--
		}
		aw := int(offs[active])
		if aw == 0 {
			break
		}
		if rows != nil {
			wNext = rows[step+1]
		}
		if err := s.waveStep(episode, step, offs[:active+1], w, wNext, auxW, auxNext); err != nil {
			return nil, err
		}
		if e.cfg.StepSink != nil {
			// The sink sees the still-active walker prefix: cur[j] → next[j]
			// is position j's transition this step, cohort segments in the
			// run's contiguous layout.
			e.cfg.StepSink(step, w[:aw], wNext[:aw])
		}
		w, wNext = wNext, w
		auxW, auxNext = auxNext, auxW
	}
	hist := make([]*walk.History, len(cohorts))
	if rows == nil {
		return hist, nil
	}
	for k, c := range cohorts {
		views := make([][]graph.VID, c.Steps+1)
		for i := range views {
			views[i] = rows[i][offs[k]:offs[k+1]]
		}
		h, err := walk.NewHistory(views)
		if err != nil {
			return nil, err
		}
		hist[k] = h
	}
	return hist, nil
}

// historyRows lays a recording run's walker arrays out as one flat
// step-major buffer, flat when it is non-nil and large enough, else a
// fresh one, and returns its row views: row 0 holds all of the cohorts'
// walkers, and row i+1 the prefix still active at step i — the cohorts,
// longest walk first, whose Steps exceed i.
func historyRows(cohorts []Cohort, offs []uint64, flat []graph.VID) [][]graph.VID {
	rows := make([][]graph.VID, cohorts[0].Steps+1)
	var size uint64
	for k, c := range cohorts {
		size += (offs[k+1] - offs[k]) * uint64(c.Steps+1)
	}
	if uint64(len(flat)) < size {
		flat = make([]graph.VID, size)
	}
	active := len(cohorts)
	for i := range rows {
		for i > 0 && active > 0 && cohorts[active-1].Steps < i {
			active--
		}
		n := offs[active]
		rows[i], flat = flat[:n:n], flat[n:]
	}
	return rows
}

// begin opens a run: a closed session refuses it, and the per-run
// counters restart from zero.
func (s *Session) begin() error {
	if s.closed {
		return ErrClosed
	}
	s.resetCounters()
	return nil
}

// resetCounters zeroes the per-run counters.
func (s *Session) resetCounters() {
	clear(s.vpSteps)
	s.times = StageTimes{}
}

// finish closes a run that began at start and advanced walkers walkers:
// its stage split, a copy of the per-partition counts (the held ones
// restart with the next run), and, with metrics, the run's counters and
// the session's report.
func (s *Session) finish(start time.Time, walkers uint64) (StageTimes, []uint64, *obs.Report) {
	t := s.times
	t.finish(start)
	var rep *obs.Report
	if m := s.m; m != nil {
		m.runs.Inc()
		m.walkers.Add(walkers)
		rep = m.reg.Snapshot()
	}
	return t, slices.Clone(s.vpSteps), rep
}

// poolMetrics is the pool accounting the session's shuffle phases carry
// (nil without metrics).
func (s *Session) poolMetrics() *obs.PoolMetrics {
	if s.m == nil {
		return nil
	}
	return s.m.pool
}

// grown returns b if it holds at least n walkers and a fresh n-walker
// array otherwise: held arrays are reallocated, never copied, when a run
// outgrows them, because every run overwrites them from the start.
func grown(b []graph.VID, n int) []graph.VID {
	if len(b) < n {
		return make([]graph.VID, n)
	}
	return b
}

// grownChannels grows bufs to at least channels channels of at least n
// walkers each.
func grownChannels(bufs [][]graph.VID, channels, n int) [][]graph.VID {
	for len(bufs) < channels {
		bufs = append(bufs, nil)
	}
	for c := 0; c < channels; c++ {
		bufs[c] = grown(bufs[c], n)
	}
	return bufs
}

// channelViews refills views with the first n walkers of each of bufs'
// channels.
func channelViews(views, bufs [][]graph.VID, n int) [][]graph.VID {
	views = views[:0]
	for _, b := range bufs {
		views = append(views, b[:n])
	}
	return views
}
