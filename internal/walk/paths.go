package walk

import (
	"fmt"

	"flashmob/internal/graph"
)

// History holds the W_i arrays of an n-step walk. Because the engine
// restores walker order after every iteration (§4.3), steps[i][j] is the
// location of walker j after i steps, and transposing yields per-walker
// paths — the paper's "random walk paths output". The rows are views:
// the engine's reverse gather writes each step straight into its row, so
// a history is the walker arrays themselves, never a copy.
type History struct {
	steps      [][]graph.VID
	numWalkers int
}

// NewHistory wraps rows, one W_i array per recorded step, each holding
// the same number of walkers. The history keeps the views, not copies:
// the caller must not write the rows while the history is in use.
func NewHistory(rows [][]graph.VID) (*History, error) {
	h := &History{steps: rows}
	if len(rows) > 0 {
		h.numWalkers = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != h.numWalkers {
			return nil, fmt.Errorf("walk: history row %d holds %d walkers, want %d", i, len(r), h.numWalkers)
		}
	}
	return h, nil
}

// NumSteps returns the number of recorded arrays (walk length + 1 when the
// start positions were recorded).
func (h *History) NumSteps() int { return len(h.steps) }

// NumWalkers returns the walker count.
func (h *History) NumWalkers() int { return h.numWalkers }

// At returns the recorded location of walker j after step i.
func (h *History) At(i, j int) graph.VID { return h.steps[i][j] }

// Path materializes walker j's full path.
func (h *History) Path(j int) []graph.VID {
	p := make([]graph.VID, len(h.steps))
	for i, step := range h.steps {
		p[i] = step[j]
	}
	return p
}

// transposeTile is how many path elements one tile of Transpose writes:
// a tile's slice of the flat output (16 KiB) stays in L1 while every row
// streams its walkers into it.
const transposeTile = 4096

// Transpose returns all paths, walker-major — the transposition described
// at the end of §4.3 — with every vertex mapped through relabel (nil:
// unmapped). The paths are windows of one flat buffer. It runs in tiles
// of walkers: each row's tile is read sequentially and written into a
// cache-resident window of the output, so neither side strides across
// memory.
func (h *History) Transpose(relabel []graph.VID) [][]graph.VID {
	steps := len(h.steps)
	out := make([][]graph.VID, h.numWalkers)
	flat := make([]graph.VID, h.numWalkers*steps)
	for j := range out {
		out[j] = flat[j*steps : (j+1)*steps : (j+1)*steps]
	}
	if steps == 0 {
		return out
	}
	tile := max(1, transposeTile/steps)
	for lo := 0; lo < h.numWalkers; lo += tile {
		hi := min(lo+tile, h.numWalkers)
		for i, row := range h.steps {
			dst := flat[lo*steps+i:]
			if relabel == nil {
				for j, v := range row[lo:hi] {
					dst[j*steps] = v
				}
				continue
			}
			for j, v := range row[lo:hi] {
				dst[j*steps] = relabel[v]
			}
		}
	}
	return out
}

// Edges streams every sampled edge <W_i[j], W_{i+1}[j]> to fn, the
// alternative output mode the paper describes for feeding GPU embedding
// training.
func (h *History) Edges(fn func(from, to graph.VID)) {
	for i := 0; i+1 < len(h.steps); i++ {
		cur, next := h.steps[i], h.steps[i+1]
		for j := range cur {
			fn(cur[j], next[j])
		}
	}
}

// VisitCounts tallies how many walker-steps landed on each vertex
// (including the start positions), used by the Table 2 statistics.
func (h *History) VisitCounts(numVertices uint32) []uint64 {
	counts := make([]uint64, numVertices)
	for _, step := range h.steps {
		for _, v := range step {
			counts[v]++
		}
	}
	return counts
}
