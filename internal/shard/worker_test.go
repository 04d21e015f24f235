package shard

import (
	"context"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/obs"
	"flashmob/internal/part"
)

// startWorkers boots S worker shards on loopback listeners, each with
// its own engine build (the multi-process arrangement, minus the
// processes), and returns the addresses plus a shutdown func.
func startWorkers(t *testing.T, g *graph.CSR, spec algo.Spec, S int) ([]string, context.CancelFunc, chan error) {
	t.Helper()
	lns := make([]net.Listener, S)
	addrs := make([]string, S)
	for i := 0; i < S; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, S)
	for i := 0; i < S; i++ {
		eng := testEngine(t, g, spec)
		go func(i int, eng *core.Engine) {
			defer eng.Close()
			errCh <- ServeWorker(ctx, lns[i], eng, i, addrs)
		}(i, eng)
	}
	return addrs, cancel, errCh
}

// TestRemoteBitwiseIdentical runs a mixed batch over a 2-worker TCP
// mesh and demands trajectories bitwise-identical to the single-engine
// run — the multi-process half of the tentpole claim — across two
// consecutive runs on the same mesh (frames of successive runs must not
// bleed into each other).
func TestRemoteBitwiseIdentical(t *testing.T) {
	g := testGraph(t, 600, 3)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	cohorts := []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: 300, Steps: 7, Seed: 21},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 150, Steps: 4, Seed: 22},
	}
	ref, err := e.RunMixed(cohorts)
	if err != nil {
		t.Fatal(err)
	}

	addrs, cancel, errCh := startWorkers(t, g, algo.DeepWalk(), 2)
	defer cancel()
	rt, err := NewRemote(e, addrs)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := rt.RunMixed(context.Background(), cohorts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for k := range cohorts {
			historiesMatch(t, "remote", ref.Cohorts[k].History, res.Cohorts[k].History)
		}
		for vp := range ref.VPSteps {
			if ref.VPSteps[vp] != res.VPSteps[vp] {
				t.Fatalf("round %d: VPSteps[%d] = %d, single-engine %d", round, vp, res.VPSteps[vp], ref.VPSteps[vp])
			}
		}
	}

	// The coordinator's aggregate must balance and match the chan-mesh
	// topology's counts on the same run (same trajectories, same
	// crossings, whatever the transport).
	topo, err := New(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.RunMixed(context.Background(), cohorts); err != nil {
		t.Fatal(err)
	}
	chanEmi := vecTotal(t, topo.MetricsReport(), "shard_emigrants_total")
	tcpEmi := vecTotal(t, rt.MetricsReport(), "shard_emigrants_total") / 2 // two rounds
	if chanEmi != tcpEmi {
		t.Fatalf("emigrants: chan mesh %d, tcp mesh %d", chanEmi, tcpEmi)
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			if err != context.Canceled {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not drain after cancel")
		}
	}
}

func vecTotal(t *testing.T, rep *obs.Report, name string) uint64 {
	t.Helper()
	vs, ok := rep.Vector(name)
	if !ok {
		t.Fatalf("metric %q missing", name)
	}
	var sum uint64
	for _, v := range vs.Values {
		sum += v
	}
	return sum
}

// TestRemoteRejectsCustomSpec pins the wire rule: function-valued
// transitions cannot cross a process boundary.
func TestRemoteRejectsCustomSpec(t *testing.T) {
	g := testGraph(t, 300, 1)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	rt, err := NewRemote(e, []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	spec := algo.DeepWalk()
	spec.Order = 2
	spec.Custom = &algo.Transition{Weight: func(g *graph.CSR, s, u, x graph.VID) float64 { return 1 }, MaxWeight: 1}
	if _, err := rt.RunMixed(context.Background(), []core.Cohort{{Spec: spec, Walkers: 10, Steps: 2, Seed: 1}}); err == nil {
		t.Fatal("custom spec crossed the wire")
	}
}

// TestWorkerCancellationDrains cancels the workers mid-run and demands
// every goroutine drains — the TCP half of the transport-drain
// guarantee (the chan half lives in topology_test.go).
func TestWorkerCancellationDrains(t *testing.T) {
	g := testGraph(t, 500, 5)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()

	before := runtime.NumGoroutine()
	addrs, cancel, errCh := startWorkers(t, g, algo.DeepWalk(), 2)
	rt, err := NewRemote(e, addrs)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := rt.RunMixed(context.Background(), []core.Cohort{
			{Spec: algo.DeepWalk(), Walkers: 3000, Steps: 5000, Seed: 9}})
		runDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the run get into its supersteps
	cancel()
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("canceled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abort after worker cancel")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-errCh:
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after cancel")
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// hostileRun opens one run on the worker at addr with the given header
// and init frames, sends GO, and returns the first frame the worker
// answers with.
func hostileRun(t *testing.T, addr string, hdr runHeader, inits ...[]graph.VID) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameRun, hdrJSON); err != nil {
		t.Fatal(err)
	}
	for _, vs := range inits {
		if err := writeFrame(conn, frameInit, vidsToBytes(vs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFrame(conn, frameGo, nil); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("worker sent no answer: %v", err)
	}
	return typ, payload
}

// TestWorkerRejectsHostileInit sends a one-worker mesh runs whose
// header or init records would index past the worker's arrays — a
// vertex past |V|, an id past the run's walkers, descending ids, more
// records than walkers, a header the engine cannot resolve or whose
// walkers, one cohort's or the run's total, overflow 32-bit ids — and
// demands a frameErr for each with the worker still serving. A header naming 2^32-1 walkers of which none
// start on this shard is a valid empty run: the worker must answer
// frameDone without sizing arrays for the header's count. A valid run
// on the same mesh must then match the single engine bitwise.
func TestWorkerRejectsHostileInit(t *testing.T) {
	g := testGraph(t, 600, 3)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	addrs, cancel, _ := startWorkers(t, g, algo.DeepWalk(), 1)
	defer cancel()

	dw := algo.DeepWalk()
	two := runHeader{Cohorts: []wireCohort{{Walkers: 2, Steps: 3, Seed: 1, Spec: toWireSpec(&dw)}}}
	badSpec := algo.DeepWalk()
	badSpec.Order = 3
	for _, tc := range []struct {
		name  string
		hdr   runHeader
		inits [][]graph.VID
	}{
		{"vertex-past-V", two, [][]graph.VID{{0, 1 << 30}}},
		{"id-past-walkers", two, [][]graph.VID{{5, 0}}},
		{"ids-not-ascending", two, [][]graph.VID{{1, 0}, {0, 1}}},
		{"too-many-records", two, [][]graph.VID{{0, 0, 1, 1, 2, 2}}},
		{"unresolvable-spec", runHeader{Cohorts: []wireCohort{{Walkers: 2, Steps: 3, Seed: 1, Spec: toWireSpec(&badSpec)}}}, nil},
		{"ids-past-32-bits", runHeader{Cohorts: []wireCohort{{Walkers: 1 << 33, Steps: 3, Seed: 1, Spec: toWireSpec(&dw)}}}, nil},
		{"run-past-32-bits", runHeader{Cohorts: []wireCohort{
			{Walkers: 1 << 31, Steps: 3, Seed: 1, Spec: toWireSpec(&dw)},
			{Walkers: 1 << 31, Steps: 2, Seed: 2, Spec: toWireSpec(&dw)},
		}}, nil},
		{"no-cohorts", runHeader{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ, payload := hostileRun(t, addrs[0], tc.hdr, tc.inits...)
			if typ != frameErr {
				t.Fatalf("worker answered frame 0x%02x (%q), want frameErr", typ, payload)
			}
		})
	}
	huge := runHeader{Cohorts: []wireCohort{{Walkers: 1<<32 - 1, Steps: 3, Seed: 1, Spec: toWireSpec(&dw)}}}
	if typ, payload := hostileRun(t, addrs[0], huge); typ != frameDone {
		t.Fatalf("empty run of 2^32-1 walkers: worker answered frame 0x%02x (%q), want frameDone", typ, payload)
	}

	cohorts := []core.Cohort{
		{Spec: algo.DeepWalk(), Walkers: 300, Steps: 5, Seed: 21},
		{Spec: algo.Node2Vec(0.5, 2), Walkers: 100, Steps: 4, Seed: 22},
	}
	ref, err := e.RunMixed(cohorts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRemote(e, addrs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunMixed(context.Background(), cohorts)
	if err != nil {
		t.Fatalf("valid run after hostile ones: %v", err)
	}
	for k := range cohorts {
		historiesMatch(t, "remote", ref.Cohorts[k].History, res.Cohorts[k].History)
	}
}

// TestExchangeRejectsForeignVertex pushes hostile peer frames through a
// ChanMesh into shard 0's exchange round of a 3-shard, 10-walker run —
// a record on a vertex past |V|, an id past the run's walkers, ids
// descending within one frame, one id sent by two peers — and demands
// the round fail naming the peer instead of handing the record to the
// next step's segment offsets and count pass.
func TestExchangeRejectsForeignVertex(t *testing.T) {
	g := testGraph(t, 800, 3)
	e := testEngine(t, g, algo.DeepWalk())
	defer e.Close()
	smap, err := part.NewShardMap(e.Plan(), 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := smap.Ranges().Range(0)
	const total = 10
	for _, tc := range []struct {
		name   string
		frames [3][]graph.VID // frames[s] is peer s's frame to shard 0
		peer   string
	}{
		{"foreign-vertex", [3][]graph.VID{1: {7, graph.VID(g.NumVertices()) + 5}}, "shard 1"},
		{"id-past-total", [3][]graph.VID{2: {total, lo}}, "shard 2"},
		{"descending-ids", [3][]graph.VID{1: {6, lo, 4, lo}}, "shard 1"},
		{"id-from-two-peers", [3][]graph.VID{1: {5, lo}, 2: {5, lo}}, "shard 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewChanMesh(3)
			ex := NewExchange(0, smap, mesh.Bind(0), nil, total, 0)
			ctx := context.Background()
			for s := 1; s < 3; s++ {
				if err := mesh.Bind(s).Send(ctx, 0, tc.frames[s]); err != nil {
					t.Fatal(err)
				}
			}
			b := batch{ids: []uint32{0}, w: []graph.VID{lo}}
			err := ex.Move(ctx, &b)
			if err == nil || !strings.Contains(err.Error(), tc.peer) {
				t.Fatalf("Move = %v, want an error naming %s", err, tc.peer)
			}
		})
	}
}
