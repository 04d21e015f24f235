package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"flashmob"
)

// checker validates walk trajectories against the engine's semantics:
// every path has steps+1 vertices in original IDs, and every hop is an
// out-edge of the input graph — except a stay at a dead end (the engine
// leaves a walker on a degree-0 vertex) and, for PageRank walks, a
// teleport (a restart lands on a uniformly random vertex). On a dynamic
// graph the edge set is the base graph plus every ingested edge, with
// reverse edges added when ingests are undirected; vertices past the base
// graph exist once a compaction absorbed them.
type checker struct {
	g *flashmob.Graph
	// numV bounds vertex IDs: the base graph's |V| plus any vertices the
	// ingest stream may add.
	numV uint32
	// extra holds ingested edges as src<<32|dst.
	extra map[uint64]struct{}
	// sample is every sampleEvery-th entry of the graph's target array: a
	// cache-sized index that narrows a hub's adjacency search to one
	// cache line before touching the full list (most walker-steps leave
	// hubs, whose lists a plain binary search would miss the cache on at
	// every probe).
	sample []flashmob.VID
}

// sampleEvery is the target-array stride of checker.sample: 16 targets
// are one 64-byte cache line.
const sampleEvery = 16

// newChecker builds a checker over a base graph, rejecting graphs whose
// adjacency lists are unsorted (hop checks binary-search them).
func newChecker(g *flashmob.Graph) (*checker, error) {
	for v := uint32(0); v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i] < adj[i-1] {
				return nil, fmt.Errorf("check: adjacency of vertex %d is not sorted", v)
			}
		}
	}
	sample := make([]flashmob.VID, (len(g.Targets)+sampleEvery-1)/sampleEvery)
	for i := range sample {
		sample[i] = g.Targets[i*sampleEvery]
	}
	return &checker{g: g, numV: g.NumVertices(), extra: make(map[uint64]struct{}), sample: sample}, nil
}

// hasBaseEdge reports whether u→v is an edge of the base graph: a binary
// search over the sampled index entries inside u's adjacency range picks
// the one block of sampleEvery targets that can hold v, then that block
// is searched.
func (c *checker) hasBaseEdge(u, v flashmob.VID) bool {
	lo, hi := int(c.g.Offsets[u]), int(c.g.Offsets[u+1])
	if hi-lo > 2*sampleEvery {
		// Sample entries whose block starts inside [lo, hi).
		a, b := (lo+sampleEvery-1)/sampleEvery, (hi-1)/sampleEvery+1
		// First sampled block whose first target is greater than v.
		k := a + sort.Search(b-a, func(i int) bool { return c.sample[a+i] > v })
		if k > a {
			lo = (k - 1) * sampleEvery
		}
		if k < b {
			hi = k * sampleEvery
		}
	}
	adj := c.g.Targets[lo:hi]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// addEdges extends the valid edge set with an ingested batch.
func (c *checker) addEdges(edges [][2]flashmob.VID, undirected bool) {
	for _, e := range edges {
		c.extra[uint64(e[0])<<32|uint64(e[1])] = struct{}{}
		if undirected {
			c.extra[uint64(e[1])<<32|uint64(e[0])] = struct{}{}
		}
		if m := max(e[0], e[1]) + 1; m > c.numV {
			c.numV = m
		}
	}
}

// isEdge reports whether u→v is in the checked edge set.
func (c *checker) isEdge(u, v flashmob.VID) bool {
	if u < c.g.NumVertices() && c.hasBaseEdge(u, v) {
		return true
	}
	_, ok := c.extra[uint64(u)<<32|uint64(v)]
	return ok
}

// deadEnd reports whether u has no base out-edges (or is a vertex the
// ingest stream added), where the engine keeps a walker in place.
func (c *checker) deadEnd(u flashmob.VID) bool {
	return u >= c.g.NumVertices() || c.g.Degree(u) == 0
}

// path checks one trajectory. With teleports allowed (PageRank walks) a
// non-edge hop counts as a teleport instead of an error; the caller
// checks the aggregate teleport share.
func (c *checker) path(p []flashmob.VID, steps int, teleports bool) (tele int, err error) {
	if err := c.shape(p, steps); err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(p); i++ {
		u, v := p[i], p[i+1]
		if c.isEdge(u, v) || (u == v && c.deadEnd(u)) {
			continue
		}
		if !teleports {
			return 0, fmt.Errorf("hop %d: %d→%d is not an edge", i, u, v)
		}
		tele++
	}
	return tele, nil
}

// shape checks a trajectory's length and that every vertex exists.
func (c *checker) shape(p []flashmob.VID, steps int) error {
	if len(p) != steps+1 {
		return fmt.Errorf("path has %d vertices, want %d", len(p), steps+1)
	}
	for i, v := range p {
		if v >= c.numV {
			return fmt.Errorf("vertex %d at position %d is outside the graph (|V|=%d)", v, i, c.numV)
		}
	}
	return nil
}

// paths checks many trajectories of one walk on every CPU and returns
// how many failed, with the first error. Every path's length and vertex
// range is checked; hops only on paths j with j%every == residue.
func (c *checker) paths(ps [][]flashmob.VID, steps, every, residue int) (bad int, first error) {
	workers := runtime.GOMAXPROCS(0)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	chunk := (len(ps) + workers - 1) / workers
	for lo := 0; lo < len(ps); lo += chunk {
		hi := min(lo+chunk, len(ps))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			n := 0
			var e error
			for j := lo; j < hi; j++ {
				var err error
				if j%every == residue {
					_, err = c.path(ps[j], steps, false)
				} else {
					err = c.shape(ps[j], steps)
				}
				if err != nil {
					n++
					if e == nil {
						e = fmt.Errorf("path %d: %w", j, err)
					}
				}
			}
			mu.Lock()
			bad += n
			if first == nil {
				first = e
			}
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	return bad, first
}

// teleportShareOK bounds the observed share of teleport hops among
// PageRank hops around the restart probability 1-damping: far fewer means
// restarts are not happening, far more means ordinary hops are leaving
// the graph's edges. Small samples (under 2000 hops) are not judged.
func teleportShareOK(tele, hops int, damping float64) bool {
	if hops < 2000 {
		return true
	}
	share, want := float64(tele)/float64(hops), 1-damping
	return share > 0.5*want && share < 1.5*want
}

// pathsHash folds every vertex of every path, in order, into one 64-bit
// value: equal hashes for two runs of one seed show the walk reproduces.
func pathsHash(ps [][]flashmob.VID) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range ps {
		for _, v := range p {
			h = (h ^ uint64(v)) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}
