package serve

import (
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestOverloadSheds drives far more load than one executor over a
// one-slot queue can absorb and checks the bounded-queue contract: some
// requests are served, the excess is shed with 503 + Retry-After, and —
// because at most QueueDepth batches can be queued ahead of an admitted
// request — the p99 latency of admitted requests stays bounded by a
// small multiple of one batch's run time instead of growing with the
// offered load.
func TestOverloadSheds(t *testing.T) {
	_, hs := newTestServer(t, Config{
		QueueDepth:      1,
		Executors:       1,
		MaxBatchWalkers: 2048,
		MaxWait:         time.Millisecond,
	})

	const n = 30
	type res struct {
		status     int
		retryAfter string
		latency    time.Duration
		runMS      float64
	}
	results := make([]res, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 1024, Steps: 400})
			r := res{status: status, latency: time.Since(t0)}
			if status == 200 {
				r.runMS = decodeWalk(t, data).RunMS
			}
			results[i] = r
		}(i)
	}
	// Retry-After is checked separately on a raw request once the
	// executor is saturated, so we can read the header.
	wg.Wait()

	var served, shed int
	var latencies []time.Duration
	var maxRun float64
	for _, r := range results {
		switch r.status {
		case 200:
			served++
			latencies = append(latencies, r.latency)
			if r.runMS > maxRun {
				maxRun = r.runMS
			}
		case 503:
			shed++
		default:
			t.Fatalf("unexpected status %d", r.status)
		}
	}
	if served == 0 {
		t.Fatal("overload served nothing")
	}
	if shed == 0 {
		t.Fatal("overload shed nothing: the queue did not bound admission")
	}
	// Bounded p99 for admitted requests: an admitted request waits for at
	// most (QueueDepth + executing + its own) batches. Allow generous
	// scheduling slack; the point is the bound does not scale with n.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	bound := time.Duration(4*maxRun)*time.Millisecond + 500*time.Millisecond
	if p99 > bound {
		t.Errorf("admitted p99 %v exceeds the queue-depth bound %v (max run %.1fms)", p99, bound, maxRun)
	}
	t.Logf("served %d, shed %d, admitted p99 %v (max run %.1fms)", served, shed, p99, maxRun)
}

// TestOverloadRetryAfter checks the 503 carries the Retry-After hint.
func TestOverloadRetryAfter(t *testing.T) {
	s, hs := newTestServer(t, Config{
		QueueDepth: 1, Executors: 1, MaxBatchRequests: 1, MaxWait: time.Millisecond,
	})
	// Saturate: one executing batch, one queued, one held by the
	// dispatcher; then the next request must bounce. The load keeps
	// coming until the probe is done, so a fast host cannot drain the
	// queue before the probe lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				postWalk(t, hs.URL, WalkRequest{Walkers: 1024, Steps: 400})
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(hs.URL+"/v1/walk", "application/json",
			reqBody(t, WalkRequest{Walkers: 1024, Steps: 400}))
		if err != nil {
			t.Fatal(err)
		}
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == 503 {
			if retry == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Skip("could not saturate the queue on this host")
		}
	}
	_ = s
}

// TestExpiredRequestShed parks a long batch on the single executor and
// then admits a request whose deadline cannot survive the wait: it must
// be shed before execution, not walked late.
func TestExpiredRequestShed(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Executors: 1, MaxBatchRequests: 1, MaxWait: 0, QueueDepth: 8,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postWalk(t, hs.URL, WalkRequest{Walkers: 2048, Steps: 300}) // occupies the executor
	}()
	time.Sleep(5 * time.Millisecond)
	// A deadline far below any scheduling latency: whichever checkpoint
	// sees the request first (dispatcher dequeue or executor start) must
	// shed it.
	status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 4, Steps: 2, TimeoutMS: 0.0005})
	wg.Wait()
	if status != 503 {
		t.Fatalf("expired request got status %d body %s, want 503", status, data)
	}
	rep := s.Metrics()
	if c, ok := rep.Counter("serve_shed_expired_total"); !ok || c.Value == 0 {
		t.Errorf("serve_shed_expired_total not incremented: %+v", c)
	}
}

// TestGracefulShutdownDrains closes the server while requests are in
// flight: every admitted request must still be answered (drained batches
// execute to completion), late arrivals get the ErrClosed-mapped 503,
// and Close is idempotent. Runs under -race in the race CI leg.
func TestGracefulShutdownDrains(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxWait: 5 * time.Millisecond, QueueDepth: 64})

	const n = 8
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postWalk(t, hs.URL, WalkRequest{Walkers: 64, Steps: 10})
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()

	for i, st := range statuses {
		if st != 200 && st != 503 {
			t.Errorf("in-flight request %d: status %d, want 200 (drained) or 503 (refused)", i, st)
		}
	}

	// Late requests are refused with the ErrClosed-mapped 503.
	status, data := postWalk(t, hs.URL, WalkRequest{Walkers: 4, Steps: 2})
	if status != 503 {
		t.Fatalf("post-close walk: status %d body %s, want 503", status, data)
	}

	// Health flips to closed/503 so load balancers drain the instance.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("post-close healthz: %d, want 503", resp.StatusCode)
	}

	s.Close() // idempotent
}
