package shard

import (
	"testing"

	"flashmob/internal/core"
	"flashmob/internal/graph"
)

// FuzzDecodeInit feeds two init frames in a row, as one run's stream,
// to decodeInit: no input may panic, and every record it accepts must
// name a cohort of the run, an id below that cohort's walker count and
// strictly above its previous one, and a vertex in the shard's range.
func FuzzDecodeInit(f *testing.F) {
	f.Add(vidsToBytes([]graph.VID{0, 0, 100, 1, 150}), vidsToBytes([]graph.VID{1, 4, 599}))
	f.Add(vidsToBytes([]graph.VID{0, 0, 1 << 30}), []byte{})
	f.Add(vidsToBytes([]graph.VID{0, 5, 100}), vidsToBytes([]graph.VID{2}))
	f.Add(vidsToBytes([]graph.VID{1, 3, 200, 2, 200}), vidsToBytes([]graph.VID{1, 3, 300}))
	f.Add([]byte{1, 2, 3}, vidsToBytes([]graph.VID{0, 1}))
	resolved := []core.Cohort{{Walkers: 2}, {Walkers: 5}}
	const lo, hi = graph.VID(100), graph.VID(600)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ids := make([][]uint32, len(resolved))
		ws := make([][]graph.VID, len(resolved))
		for _, frame := range [][]byte{a, b} {
			if err := decodeInit(frame, resolved, lo, hi, ids, ws); err != nil {
				return
			}
			for k, c := range resolved {
				if len(ids[k]) != len(ws[k]) || uint64(len(ids[k])) > c.Walkers {
					t.Fatalf("cohort %d: %d ids, %d vertices, %d walkers", k, len(ids[k]), len(ws[k]), c.Walkers)
				}
				for i, id := range ids[k] {
					if uint64(id) >= c.Walkers || (i > 0 && id <= ids[k][i-1]) {
						t.Fatalf("cohort %d: accepted id %d at %d of %v", k, id, i, ids[k])
					}
					if v := ws[k][i]; v < lo || v >= hi {
						t.Fatalf("cohort %d: accepted vertex %d outside [%d, %d)", k, v, lo, hi)
					}
				}
			}
		}
	})
}
