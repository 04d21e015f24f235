package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flashmob"
)

// testSystem builds a small YouTube-shaped system suitable for serving.
func testSystem(t testing.TB) (*flashmob.System, flashmob.Algorithm) {
	t.Helper()
	g, err := flashmob.Generate("YT", 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := flashmob.DeepWalk()
	sys, err := flashmob.New(g, flashmob.Options{
		Algorithm: spec, Seed: 7, Workers: 2, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, spec
}

// newTestServer stands up a Server over a fresh system on an httptest
// listener; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, spec := testSystem(t)
	s, err := New([]Backend{{Name: "deepwalk", Sys: sys, Spec: spec}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

// postWalk issues one walk query and returns status + body.
func postWalk(t *testing.T, base string, req WalkRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/walk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeWalk parses a 200 body.
func decodeWalk(t *testing.T, data []byte) WalkResponse {
	t.Helper()
	var wr WalkResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		t.Fatalf("bad walk response %s: %v", data, err)
	}
	return wr
}

// TestWalkEndToEnd drives every endpoint once: a coalescible query, the
// plan, health, and metrics.
func TestWalkEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxWait: time.Millisecond})

	status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 5, Steps: 3})
	if status != 200 {
		t.Fatalf("walk: status %d body %s", status, data)
	}
	wr := decodeWalk(t, data)
	if wr.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version %d, want %d", wr.SchemaVersion, SchemaVersion)
	}
	if wr.Algorithm != "deepwalk" || wr.Walkers != 5 || wr.Steps != 3 {
		t.Errorf("echo mismatch: %+v", wr)
	}
	if len(wr.Paths) != 5 {
		t.Fatalf("got %d paths, want 5", len(wr.Paths))
	}
	for _, p := range wr.Paths {
		if len(p) != 4 {
			t.Fatalf("path length %d, want steps+1 = 4", len(p))
		}
	}

	resp, err := http.Get(hs.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	var plan PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plan.Algorithms) != 1 || plan.Algorithms[0].NumVPs < 1 {
		t.Errorf("bad plan response: %+v", plan)
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	served, ok := mr.Server.Counter("serve_served_total")
	if !ok || served.Value < 1 {
		t.Errorf("serve_served_total missing or zero in /metrics: %+v", served)
	}

	// Timeouts past time.Duration's range clamp to MaxTimeout like any
	// other oversized timeout; they must not overflow into an already
	// expired deadline.
	for _, ms := range []float64{1e13, 1e300} {
		if status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 4, Steps: 3, TimeoutMS: ms}); status != 200 {
			t.Errorf("timeout_ms %g: status %d body %s, want 200", ms, status, data)
		}
	}
}

// TestMetricsReflectServedWaves pins GET /metrics to the waves a
// metrics-on server executes: each wave's engine run folds into the
// system aggregate before its responses go out, so after 20 sequential
// walks the engine counters account for every wave, plus the one-walker
// probe run New makes.
func TestMetricsReflectServedWaves(t *testing.T) {
	g, err := flashmob.Generate("YT", 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := flashmob.DeepWalk()
	sys, err := flashmob.New(g, flashmob.Options{
		Algorithm: spec, Seed: 7, Workers: 2, RecordPaths: true, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]Backend{{Name: "deepwalk", Sys: sys, Spec: spec}}, Config{MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() { hs.Close(); s.Close() }()

	const walks, walkers, steps = 20, 3, 4
	for i := 0; i < walks; i++ {
		if status, data := postWalk(t, hs.URL, WalkRequest{Walkers: walkers, Steps: steps}); status != 200 {
			t.Fatalf("walk %d: status %d body %s", i, status, data)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	waves, ok := mr.Server.Counter("serve_runs_total")
	if !ok || waves.Value == 0 || waves.Value > walks {
		t.Fatalf("serve_runs_total = %+v, want 1..%d", waves, walks)
	}
	if len(mr.Engines) != 1 || mr.Engines[0].Report == nil {
		t.Fatalf("/metrics engines = %+v, want one report", mr.Engines)
	}
	rep := mr.Engines[0].Report
	want := map[string]uint64{
		"core_runs_total":       waves.Value + 1,
		"core_mixed_runs_total": waves.Value,
		"core_walkers_total":    walks*walkers + 1,
		"core_steps_total":      waves.Value*steps + 1,
	}
	for name, v := range want {
		if c, ok := rep.Counter(name); !ok || c.Value != v {
			t.Errorf("%s = %+v, want %d", name, c, v)
		}
	}
	if vp, ok := rep.Vector("core_vp_walker_steps"); !ok || vp.Total() != walks*walkers*steps+1 {
		t.Errorf("core_vp_walker_steps total = %d, want %d", vp.Total(), walks*walkers*steps+1)
	}
}

// TestValidation exercises the 400/405 surface.
func TestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxWait: time.Millisecond})
	cases := []WalkRequest{
		{Walkers: 0},                            // no walkers
		{Walkers: 1 << 30},                      // too many walkers
		{Walkers: 1, Steps: 1 << 20},            // too many steps
		{Walkers: 1, Algorithm: "no-such-walk"}, // unknown algorithm
	}
	for i, req := range cases {
		if status, body := postWalk(t, hs.URL, req); status != 400 {
			t.Errorf("case %d: status %d body %s, want 400", i, status, body)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/walk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /v1/walk: %d, want 405", resp.StatusCode)
	}
}

// TestUnseededCoalescing holds a wide batch window, fires concurrent
// sampling-mode requests, and checks they shared an engine run yet got
// disjoint walker-array slices.
func TestUnseededCoalescing(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxWait: 50 * time.Millisecond, Executors: 1})

	const n = 6
	type res struct {
		status int
		wr     WalkResponse
	}
	results := make([]res, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 10, Steps: 4})
			results[i] = res{status, WalkResponse{}}
			if status == 200 {
				results[i].wr = decodeWalk(t, data)
			}
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.wr.Coalesced {
			coalesced++
			if r.wr.RunWalkers <= 10 {
				t.Errorf("request %d coalesced but run_walkers = %d", i, r.wr.RunWalkers)
			}
		}
	}
	if coalesced < 2 {
		t.Fatalf("only %d of %d requests coalesced under a 50ms window", coalesced, n)
	}
	// Disjoint slices: no two coalesced requests may share trajectories.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if results[i].wr.Coalesced && results[j].wr.Coalesced &&
				fmt.Sprint(results[i].wr.Paths) == fmt.Sprint(results[j].wr.Paths) {
				t.Errorf("requests %d and %d got identical trajectories", i, j)
			}
		}
	}
}

// TestSeededDeterminism is the serving determinism contract: a seeded
// request returns bitwise-identical trajectories whether it rides a
// batch alone, rides one coalesced with a crowd of sampling-mode
// requests, or is executed directly on an identically built system.
func TestSeededDeterminism(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxWait: 40 * time.Millisecond, Executors: 1})
	seed := uint64(123)
	req := WalkRequest{Walkers: 20, Steps: 5, Seed: &seed}

	// Alone.
	status, data := postWalk(t, hs.URL, req)
	if status != 200 {
		t.Fatalf("alone: status %d body %s", status, data)
	}
	alone := decodeWalk(t, data)
	if !alone.Seeded || alone.Seed != seed {
		t.Fatalf("seed not echoed: %+v", alone)
	}

	// Coalesced with unseeded neighbors; retry until the batch really
	// was shared (scheduling makes coalescing probabilistic).
	var crowded WalkResponse
	for attempt := 0; attempt < 10; attempt++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				postWalk(t, hs.URL, WalkRequest{Walkers: 15, Steps: 5})
			}()
		}
		time.Sleep(2 * time.Millisecond) // let the batch open
		status, data = postWalk(t, hs.URL, req)
		wg.Wait()
		if status != 200 {
			t.Fatalf("crowded: status %d body %s", status, data)
		}
		crowded = decodeWalk(t, data)
		if crowded.Coalesced {
			break
		}
	}
	if !crowded.Coalesced {
		t.Fatal("seeded request never coalesced with the crowd")
	}
	if crowded.RunWalkers != 20 {
		t.Errorf("seeded request's run_walkers = %d, want its own 20", crowded.RunWalkers)
	}
	if fmt.Sprint(alone.Paths) != fmt.Sprint(crowded.Paths) {
		t.Fatal("seeded trajectories differ between alone and coalesced batches")
	}

	// Direct execution on an identically built system.
	sys, _ := testSystem(t)
	defer sys.Close()
	sess, err := sys.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.WalkSeeded(seed, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(paths) != fmt.Sprint(alone.Paths) {
		t.Fatal("served trajectories differ from direct WalkSeeded on an identical build")
	}
}

// TestShardedCoordinatorServing pins coordinator mode: a server whose
// backend carries a Sharded handle answers seeded requests with
// byte-identical trajectories to an unsharded server over the same
// build — the shard count is invisible to clients.
func TestShardedCoordinatorServing(t *testing.T) {
	seed := uint64(4711)
	req := WalkRequest{Walkers: 24, Steps: 12, Seed: &seed}

	_, plain := newTestServer(t, Config{})
	status, body := postWalk(t, plain.URL, req)
	if status != http.StatusOK {
		t.Fatalf("unsharded walk: %d %s", status, body)
	}
	var want WalkResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	sys, spec := testSystem(t)
	sharded, err := flashmob.NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]Backend{{Name: "deepwalk", Sys: sys, Spec: spec, Sharded: sharded}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() { hs.Close(); s.Close() }()

	status, body = postWalk(t, hs.URL, req)
	if status != http.StatusOK {
		t.Fatalf("sharded walk: %d %s", status, body)
	}
	var got WalkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(got.Paths), len(want.Paths))
	}
	for j := range want.Paths {
		for i := range want.Paths[j] {
			if got.Paths[j][i] != want.Paths[j][i] {
				t.Fatalf("walker %d step %d: sharded %d, unsharded %d",
					j, i, got.Paths[j][i], want.Paths[j][i])
			}
		}
	}

	// The exchange counters surface on /metrics under "shards".
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Shards) != 1 || mr.Shards[0].Algorithm != "deepwalk" {
		t.Fatalf("metrics shards = %+v, want one deepwalk entry", mr.Shards)
	}
	if _, ok := mr.Shards[0].Report.Vector("shard_emigrants_total"); !ok {
		t.Fatal("shard_emigrants_total missing from shard report")
	}
}
