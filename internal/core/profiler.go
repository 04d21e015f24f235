package core

import (
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// ProfilerConfig drives the paper's offline profiling (§4.4): measuring
// per-walker-step sample cost over a grid of VP shapes on the actual host,
// producing a profile.Table the MCKP planner can consume in place of the
// analytical model. The measurement is machine-dependent but
// graph-independent, so a table is reusable across graphs.
type ProfilerConfig struct {
	// Degrees to measure (default 16, 64, 256, 1024 — the Figure 6 axis).
	Degrees []uint32
	// Densities to measure (default 1 and 0.25 — the Figure 6 panels).
	Densities []float64
	// WorkingSets are the target working-set sizes in bytes (default:
	// 75% of L1, L2, L3, then 8×L3 for DRAM, following Figure 6's
	// categories).
	WorkingSets []uint64
	// MinSteps is the minimum walker-steps timed per point (default
	// 200k).
	MinSteps uint64
	// MaxEdges caps the synthetic partition's edge count (default 2^27 ≈
	// 134M, about 1GB of working data per point). Grid points whose
	// working-set target cannot be reached within the cap while staying
	// in the same cache-fit class are skipped — on small-memory machines
	// the high-degree DRAM cells of Figure 6 become unmeasurable, as
	// they genuinely need the paper's 296GB platform.
	MaxEdges uint64
	// Seed drives the synthetic VPs.
	Seed uint64
	// MachineLabel annotates the output table.
	MachineLabel string
}

func (c ProfilerConfig) withDefaults(geom mem.Geometry) ProfilerConfig {
	if len(c.Degrees) == 0 {
		c.Degrees = []uint32{16, 64, 256, 1024}
	}
	if len(c.Densities) == 0 {
		c.Densities = []float64{1, 0.25}
	}
	if len(c.WorkingSets) == 0 {
		c.WorkingSets = []uint64{
			geom.L1.SizeBytes * 3 / 4,
			geom.L2.SizeBytes * 3 / 4,
			geom.L3.SizeBytes * 3 / 4,
			geom.L3.SizeBytes * 8,
		}
	}
	if c.MinSteps == 0 {
		c.MinSteps = 200_000
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 1 << 27
	}
	return c
}

// MeasureProfile runs the micro-benchmarks and assembles a measured cost
// table. Each grid point times the real sample stage (the same code the
// engine runs) on a synthetic uniform-degree partition sized so the
// policy's working set hits the target size.
func MeasureProfile(cfg ProfilerConfig, geom mem.Geometry) (*profile.Table, error) {
	cfg = cfg.withDefaults(geom)
	tab := &profile.Table{MachineLabel: cfg.MachineLabel}
	for _, ws := range cfg.WorkingSets {
		for _, d := range cfg.Degrees {
			for _, rho := range cfg.Densities {
				for _, pol := range []profile.Policy{profile.PS, profile.DS} {
					pt, err := measurePoint(geom, pol, ws, d, rho, cfg.MinSteps, cfg.MaxEdges, cfg.Seed)
					if err != nil {
						return nil, err
					}
					if pt != nil {
						tab.Add(*pt)
					}
				}
			}
		}
	}
	sh, err := measureShuffle(cfg.Seed, cfg.MinSteps)
	if err != nil {
		return nil, err
	}
	tab.ShuffleNS = sh
	return tab, nil
}

// vpVerticesFor inverts profile.WorkingSetBytes for a uniform degree:
// the vertex count whose working set under pol is ≈ target bytes.
func vpVerticesFor(pol profile.Policy, target uint64, d uint32) uint64 {
	switch pol {
	case profile.DS:
		// n*(4d+8) = target
		return target / uint64(4*d+8)
	case profile.PS:
		// 4d + n*(16+64) = target
		adj := uint64(4 * d)
		if target <= adj {
			return 0
		}
		return (target - adj) / 80
	}
	return 0
}

// profileVertices applies the construction-cost caps to vpVerticesFor: at
// most maxEdges synthetic edges and at most 2^22 vertices.
func profileVertices(pol profile.Policy, target uint64, d uint32, maxEdges uint64) uint64 {
	n := vpVerticesFor(pol, target, d)
	if cap := maxEdges / uint64(d); n > cap {
		n = cap
	}
	if n > 1<<22 {
		n = 1 << 22
	}
	return n
}

// measurePoint times one (policy, working set, degree, density) grid cell.
// Returns nil (skip) for degenerate shapes and for cells whose memory cost
// exceeds MaxEdges without staying in the target cache-fit class.
func measurePoint(geom mem.Geometry, pol profile.Policy, ws uint64, d uint32, rho float64, minSteps, maxEdges, seed uint64) (*profile.Point, error) {
	n := profileVertices(pol, ws, d, maxEdges)
	if n < 4 {
		return nil, nil
	}
	// The capped shape must still land in the same cache level as the
	// requested target, or the measurement would be mislabeled.
	actualWS := profile.WorkingSetBytes(pol, profile.VPShape{Vertices: n, AvgDegree: float64(d)}, geom.LineBytes)
	if profile.LevelFor(geom, actualWS) != profile.LevelFor(geom, ws) {
		return nil, nil
	}
	g, err := gen.UniformDegree(uint32(n), d, seed)
	if err != nil {
		return nil, err
	}
	// Single-VP plan with the requested policy.
	plan := &part.Plan{
		V:            uint32(n),
		GroupSizeLog: ceilLog2u(uint64(n)),
		Groups: []part.GroupPlan{{
			Start: 0, End: uint32(n),
			VPSizeLog: ceilLog2u(uint64(n)),
			Policies:  []profile.Policy{pol},
		}},
	}
	if err := part.Finalize(plan); err != nil {
		return nil, err
	}
	e, err := New(g, algo.DeepWalk(), Config{Workers: 1, Seed: seed, Plan: plan})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	sess, err := e.NewSession(nil)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	// Profile the policy itself, whatever the build's switch would pick.
	sess.cohortSlots(1)[0].bindTemplate(sess, &e.spec, true)
	walkers := int(rho * float64(n) * float64(d))
	if walkers < 1 {
		walkers = 1
	}
	if walkers > 1<<22 {
		walkers = 1 << 22
	}
	// The walkers "residing on the VP": random vertices of the partition,
	// refreshed between timing rounds as the shuffle would.
	src := rng.NewXorShift1024Star(seed + 1)
	chunk := make([]graph.VID, walkers)
	resetChunk := func() {
		for i := range chunk {
			chunk[i] = graph.VID(rng.Uint32n(src, uint32(n)))
		}
	}
	resetChunk()
	// Warm-up round.
	sess.sampleVP(0, chunk, nil, src)
	var steps uint64
	var elapsed time.Duration
	for steps < minSteps {
		resetChunk()
		t0 := time.Now()
		sess.sampleVP(0, chunk, nil, src)
		elapsed += time.Since(t0)
		steps += uint64(walkers)
	}
	return &profile.Point{
		Policy:    pol,
		Vertices:  uint64(n),
		AvgDegree: float64(d),
		Density:   rho,
		StepNS:    float64(elapsed.Nanoseconds()) / float64(steps),
	}, nil
}

// measureShuffle times one shuffle level (forward + reverse) per
// walker-step on a 2048-bin uniform plan, one worker inline. The
// shuffler has one data path, the engine's, so the MCKP cost model
// prices the shuffle the engine actually executes.
func measureShuffle(seed, minSteps uint64) (float64, error) {
	const n = 1 << 20
	g, err := gen.UniformDegree(n, 2, seed)
	if err != nil {
		return 0, err
	}
	plan, err := part.PlanUniform(g, part.Config{MaxBins: 2048}, profile.DS)
	if err != nil {
		return 0, err
	}
	walkers := 1 << 20
	sh, err := walk.NewShuffler(plan, walkers, nil)
	if err != nil {
		return 0, err
	}
	src := rng.NewXorShift1024Star(seed + 2)
	w := make([]graph.VID, walkers)
	sw := make([]graph.VID, walkers)
	next := make([]graph.VID, walkers)
	for i := range w {
		w[i] = graph.VID(rng.Uint32n(src, n))
	}
	var steps uint64
	var elapsed time.Duration
	for steps < minSteps {
		t0 := time.Now()
		if err := sh.Forward(w, sw, nil, nil); err != nil {
			return 0, err
		}
		if err := sh.Reverse(w, sw, next, nil, nil); err != nil {
			return 0, err
		}
		elapsed += time.Since(t0)
		steps += uint64(walkers)
		w, next = next, w
	}
	return float64(elapsed.Nanoseconds()) / float64(steps), nil
}

// ceilLog2u returns ⌈log2(x)⌉ for x ≥ 1.
func ceilLog2u(x uint64) uint {
	var l uint
	for (uint64(1) << l) < x {
		l++
	}
	return l
}
