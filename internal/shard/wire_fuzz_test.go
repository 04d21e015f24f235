package shard

import (
	"context"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/graph"
	"flashmob/internal/part"
)

// FuzzDecodeInit feeds two init frames in a row, as one run's stream,
// to decodeInit: no input may panic, and every record it accepts must
// carry an id below the run's walker total and strictly above the
// previous one, and a vertex in the shard's range.
func FuzzDecodeInit(f *testing.F) {
	f.Add(vidsToBytes([]graph.VID{0, 100, 1, 150}), vidsToBytes([]graph.VID{4, 599}))
	f.Add(vidsToBytes([]graph.VID{0, 1 << 30}), []byte{})
	f.Add(vidsToBytes([]graph.VID{5, 100}), vidsToBytes([]graph.VID{2}))
	f.Add(vidsToBytes([]graph.VID{3, 200, 2, 200}), vidsToBytes([]graph.VID{3, 300}))
	f.Add([]byte{1, 2, 3}, vidsToBytes([]graph.VID{0, 1}))
	const total = 7
	const lo, hi = graph.VID(100), graph.VID(600)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ids []uint32
		var ws []graph.VID
		for _, frame := range [][]byte{a, b} {
			var err error
			if ids, ws, err = decodeInit(frame, total, lo, hi, ids, ws); err != nil {
				return
			}
			if len(ids) != len(ws) || len(ids) > total {
				t.Fatalf("%d ids, %d vertices, %d walkers", len(ids), len(ws), total)
			}
			for i, id := range ids {
				if id >= total || (i > 0 && id <= ids[i-1]) {
					t.Fatalf("accepted id %d at %d of %v", id, i, ids)
				}
				if v := ws[i]; v < lo || v >= hi {
					t.Fatalf("accepted vertex %d outside [%d, %d)", v, lo, hi)
				}
			}
		}
	})
}

// FuzzExchangeFrame decodes fuzzed bytes as one peer's walker frame
// (bytesToVIDs, as the TCP transport does), sends it through a ChanMesh
// into shard 0's exchange round of a 2-shard, 40-walker run with one aux
// channel, and merges it with shard 0's survivors: no input may panic,
// and every accepted round's output must have ascending ids below the
// run's total and vertices in shard 0's range.
func FuzzExchangeFrame(f *testing.F) {
	g := testGraph(f, 600, 3)
	e := testEngine(f, g, algo.DeepWalk())
	defer e.Close()
	smap, err := part.NewShardMap(e.Plan(), 2)
	if err != nil {
		f.Fatal(err)
	}
	lo, hi := smap.Ranges().Range(0)
	const total = 40
	f.Add(vidsToBytes([]graph.VID{1, lo, lo, 5, lo + 1, lo}))
	f.Add(vidsToBytes([]graph.VID{3, lo, lo}))
	f.Add(vidsToBytes([]graph.VID{9, hi, lo}))
	f.Add(vidsToBytes([]graph.VID{total, lo, lo}))
	f.Add(vidsToBytes([]graph.VID{7, lo, lo, 6, lo, lo}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := bytesToVIDs(data)
		if err != nil {
			return
		}
		mesh := NewChanMesh(2)
		ctx := context.Background()
		if err := mesh.Bind(1).Send(ctx, 0, frame); err != nil {
			t.Fatal(err)
		}
		ex := NewExchange(0, smap, mesh.Bind(0), nil, total, 1)
		b := batch{
			ids: []uint32{0, 3, 8}, w: []graph.VID{lo, lo, lo + 1},
			aux:    [][]graph.VID{{lo, lo, lo}},
			outAux: [][]graph.VID{nil},
		}
		if err := ex.Move(ctx, &b); err != nil {
			return
		}
		if len(b.outIDs) != len(b.out) || len(b.outAux[0]) != len(b.out) {
			t.Fatalf("%d ids, %d vertices, %d aux", len(b.outIDs), len(b.out), len(b.outAux[0]))
		}
		for i, id := range b.outIDs {
			if id >= total || (i > 0 && id <= b.outIDs[i-1]) {
				t.Fatalf("accepted id %d at %d of %v", id, i, b.outIDs)
			}
			if v := b.out[i]; v < lo || v >= hi {
				t.Fatalf("accepted vertex %d outside [%d, %d)", v, lo, hi)
			}
		}
	})
}
