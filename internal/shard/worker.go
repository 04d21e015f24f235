package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// wireSpec is the JSON shape of a walk spec on the run protocol. Custom
// and History transitions carry function values, so they cannot cross a
// process boundary; the coordinator rejects them up front.
type wireSpec struct {
	Name     string  `json:"name"`
	Order    int     `json:"order"`
	Steps    int     `json:"steps"`
	P        float64 `json:"p,omitempty"`
	Q        float64 `json:"q,omitempty"`
	Weighted bool    `json:"weighted,omitempty"`
	StopProb float64 `json:"stop_prob,omitempty"`
}

func toWireSpec(sp *algo.Spec) wireSpec {
	return wireSpec{Name: sp.Name, Order: sp.Order, Steps: sp.Steps,
		P: sp.P, Q: sp.Q, Weighted: sp.Weighted, StopProb: sp.StopProb}
}

func (ws wireSpec) spec() algo.Spec {
	return algo.Spec{Name: ws.Name, Order: ws.Order, Steps: ws.Steps,
		P: ws.P, Q: ws.Q, Weighted: ws.Weighted, StopProb: ws.StopProb}
}

// runHeader opens one run on a worker: the resolved cohorts (defaults
// already applied by the coordinator, so every worker steps the same
// schedule without consulting its own defaults), sent in execution
// order; the worker derives the same order and global ids (newWave).
type runHeader struct {
	Cohorts []wireCohort `json:"cohorts"`
}

type wireCohort struct {
	Walkers uint64   `json:"walkers"`
	Steps   int      `json:"steps"`
	Seed    uint64   `json:"seed"`
	Spec    wireSpec `json:"spec"`
}

// doneTrailer closes a worker's run: the shard's exchange-counter deltas
// for this run and its per-partition walker-step counts.
type doneTrailer struct {
	Emigrants  uint64   `json:"emigrants"`
	Immigrants uint64   `json:"immigrants"`
	Frames     uint64   `json:"frames"`
	FrameWords uint64   `json:"frame_words"`
	VPSteps    []uint64 `json:"vp_steps"`
}

// pathChunkWords caps one framePaths payload: triples of words, well
// under maxFramePayload.
const pathChunkWords = 3 * (1 << 16)

type coordConn struct {
	conn   net.Conn
	header []byte
}

// ServeWorker hosts shard self of a len(addrs)-shard topology: it
// establishes the exchange mesh with its peers (dialing lower indices,
// accepting hellos from higher ones), then serves coordinator runs off
// ln one at a time until ctx ends. The engine must be built identically
// on every worker and the coordinator — same graph, same config — since
// the shard map and the seed schedule derive from the plan. Returns
// ctx.Err() on a clean drain.
func ServeWorker(ctx context.Context, ln net.Listener, eng *core.Engine, self int, addrs []string) error {
	S := len(addrs)
	if self < 0 || self >= S {
		return fmt.Errorf("shard: worker index %d out of range [0, %d)", self, S)
	}
	smap, err := part.NewShardMap(eng.Plan(), S)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	type peerConn struct {
		idx  int
		conn net.Conn
	}
	peerCh := make(chan peerConn, S)
	coordCh := make(chan coordConn)
	acceptErr := make(chan error, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			go func(conn net.Conn) {
				typ, payload, err := readFrame(conn)
				if err != nil {
					conn.Close()
					return
				}
				switch typ {
				case frameHello:
					vs, err := bytesToVIDs(payload)
					if err != nil || len(vs) != 1 {
						conn.Close()
						return
					}
					peerCh <- peerConn{idx: int(vs[0]), conn: conn}
				case frameRun:
					select {
					case coordCh <- coordConn{conn: conn, header: payload}:
					case <-ctx.Done():
						conn.Close()
					}
				default:
					conn.Close()
				}
			}(conn)
		}
	}()

	type dialRes struct {
		j    int
		conn net.Conn
		err  error
	}
	dialed := make(chan dialRes, self)
	for j := 0; j < self; j++ {
		go func(j int) {
			c, err := dialPeer(ctx, addrs[j], self)
			dialed <- dialRes{j: j, conn: c, err: err}
		}(j)
	}
	conns := make([]net.Conn, S)
	for need := S - 1; need > 0; {
		select {
		case p := <-peerCh:
			if p.idx <= self || p.idx >= S || conns[p.idx] != nil {
				p.conn.Close()
				continue
			}
			conns[p.idx] = p.conn
			need--
		case d := <-dialed:
			if d.err != nil {
				return d.err
			}
			conns[d.j] = d.conn
			need--
		case err := <-acceptErr:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	tr := NewTCPTransport(self, conns)
	defer tr.Close()
	m := newMetrics(S)

	for {
		select {
		case cc := <-coordCh:
			// Per-run failures are reported on the coordinator connection;
			// the worker stays up for the next run.
			serveRun(ctx, cc, eng, smap, tr, m, self)
			cc.conn.Close()
		case err := <-acceptErr:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// decodeInit checks one frameInit payload — (id, vertex) word pairs
// under the run's global walker ids — against the run's total walkers
// and this shard's vertex range [lo, hi), and appends its records to
// ids/ws. Every accepted record has an id below total, strictly above
// the previous id (across frames too), and a vertex the shard owns; so
// a shard never receives more records than the run has walkers. A
// rejected frame may leave a partial append behind, which is harmless
// because the run is abandoned.
func decodeInit(payload []byte, total uint64, lo, hi graph.VID, ids []uint32, ws []graph.VID) ([]uint32, []graph.VID, error) {
	vs, err := bytesToVIDs(payload)
	if err != nil || len(vs)%2 != 0 {
		return ids, ws, fmt.Errorf("shard: malformed init frame")
	}
	for i := 0; i < len(vs); i += 2 {
		id, v := uint32(vs[i]), vs[i+1]
		if uint64(id) >= total {
			return ids, ws, fmt.Errorf("shard: init record has walker id %d of %d", id, total)
		}
		if n := len(ids); n > 0 && id <= ids[n-1] {
			return ids, ws, fmt.Errorf("shard: init records are not ascending (id %d after %d)", id, ids[n-1])
		}
		if v < lo || v >= hi {
			return ids, ws, fmt.Errorf("shard: init record puts walker %d on vertex %d, outside this shard's vertices [%d, %d)", id, v, lo, hi)
		}
		ids = append(ids, id)
		ws = append(ws, v)
	}
	return ids, ws, nil
}

// serveRun executes one coordinator run on the worker's shard.
// Malformed headers and init frames are answered with frameErr; the
// worker stays up for the next run.
func serveRun(ctx context.Context, cc coordConn, eng *core.Engine, smap *part.ShardMap, tr Transport, m *Metrics, self int) {
	fail := func(err error) {
		_ = writeFrame(cc.conn, frameErr, []byte(err.Error()))
	}
	var hdr runHeader
	if err := json.Unmarshal(cc.header, &hdr); err != nil {
		fail(fmt.Errorf("shard: bad run header: %w", err))
		return
	}
	cohorts := make([]core.Cohort, len(hdr.Cohorts))
	for i, wc := range hdr.Cohorts {
		cohorts[i] = core.Cohort{Spec: wc.Spec.spec(), Walkers: wc.Walkers, Steps: wc.Steps, Seed: wc.Seed}
	}
	wv, err := newWave(eng, cohorts)
	if err != nil {
		fail(fmt.Errorf("shard: bad run header: %w", err))
		return
	}

	// Collect init frames until GO.
	lo, hi := smap.Ranges().Range(self)
	var ids []uint32
	var ws []graph.VID
	for {
		typ, payload, err := readFrame(cc.conn)
		if err != nil {
			return // coordinator gone; nothing to report to
		}
		if typ == frameGo {
			break
		}
		if typ != frameInit {
			fail(fmt.Errorf("shard: unexpected frame 0x%02x during init", typ))
			return
		}
		if ids, ws, err = decodeInit(payload, wv.total(), lo, hi, ids, ws); err != nil {
			fail(err)
			return
		}
	}

	var frags []graph.VID
	r := &shardRun{
		self: self, eng: eng, smap: smap, tr: tr, m: m,
		wave: wv, ids: ids, w: ws,
		vpSteps: make([]uint64, eng.Plan().NumVPs()),
		record: func(_, step int, ids []uint32, w []graph.VID) {
			for j, id := range ids {
				frags = append(frags, graph.VID(step), graph.VID(id), w[j])
			}
		},
	}
	before := doneTrailer{
		Emigrants: m.Emigrants.Value(self), Immigrants: m.Immigrants.Value(self),
		Frames: m.Frames.Value(self), FrameWords: m.FrameWords.Value(self),
	}
	if err := r.run(ctx); err != nil {
		fail(err)
		return
	}

	bw := bufio.NewWriter(cc.conn)
	for off := 0; off < len(frags); off += pathChunkWords {
		end := min(off+pathChunkWords, len(frags))
		if err := writeFrame(bw, framePaths, vidsToBytes(frags[off:end])); err != nil {
			return
		}
	}
	trailer := doneTrailer{
		Emigrants:  m.Emigrants.Value(self) - before.Emigrants,
		Immigrants: m.Immigrants.Value(self) - before.Immigrants,
		Frames:     m.Frames.Value(self) - before.Frames,
		FrameWords: m.FrameWords.Value(self) - before.FrameWords,
		VPSteps:    r.vpSteps,
	}
	b, err := json.Marshal(trailer)
	if err != nil {
		fail(err)
		return
	}
	if err := writeFrame(bw, frameDone, b); err != nil {
		return
	}
	bw.Flush()
}
