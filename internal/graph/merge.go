package graph

import (
	"fmt"
	"slices"
)

// MergeEdges merges a batch of delta edges into an existing sorted,
// deduplicated, unweighted CSR, producing the CSR that Build would return
// for the union edge set (with Dedup on): each touched vertex's adjacency
// becomes the sorted-unique union of its base list and its delta targets,
// while untouched vertices' adjacency blocks are copied wholesale —
// no per-vertex re-sort, no re-dedup, no edge-list materialization of the
// base graph. Delta endpoints beyond the base extend the vertex space (the
// new vertices start with only their delta edges).
//
// Weighted graphs are rejected: Build's unstable per-vertex sort makes
// the float32 weight-summing order of merged parallel edges depend on the
// input permutation, so a merge could not promise bitwise equality with a
// cold Build of the union. Unweighted sorted-unique unions carry no such
// order dependence. Delta edge weights are ignored.
func MergeEdges(base *CSR, delta []Edge) (*CSR, error) {
	if base.Weights != nil {
		return nil, fmt.Errorf("graph: MergeEdges does not support weighted graphs")
	}
	n := base.NumVertices()
	for _, e := range delta {
		if e.Src == NoVertex || e.Dst == NoVertex {
			return nil, fmt.Errorf("graph: vertex ID %#x is reserved", NoVertex)
		}
		if e.Src >= n {
			n = e.Src + 1
		}
		if e.Dst >= n {
			n = e.Dst + 1
		}
	}

	// Order the delta by (source, target) without mutating the caller's
	// slice; each source's targets then form one sorted run.
	sorted := make([]Edge, len(delta))
	copy(sorted, delta)
	slices.SortFunc(sorted, func(a, b Edge) int {
		if a.Src != b.Src {
			if a.Src < b.Src {
				return -1
			}
			return 1
		}
		if a.Dst != b.Dst {
			if a.Dst < b.Dst {
				return -1
			}
			return 1
		}
		return 0
	})

	baseN := base.NumVertices()
	// Sizing pass: the merged degree of every touched vertex.
	offsets := make([]uint64, n+1)
	for v := uint32(0); v < n; v++ {
		if v < baseN {
			offsets[v+1] = uint64(base.Degree(v))
		}
	}
	di := 0
	for di < len(sorted) {
		src := sorted[di].Src
		run := di
		for run < len(sorted) && sorted[run].Src == src {
			run++
		}
		var adj []VID
		if src < baseN {
			adj = base.Neighbors(src)
		}
		offsets[src+1] = uint64(mergedDegree(adj, sorted[di:run]))
		di = run
	}
	for v := uint32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}

	// Fill pass: touched vertices merge, the stretches between them are
	// contiguous in both CSRs and copy as single blocks.
	targets := make([]VID, offsets[n])
	di = 0
	copied := VID(0) // first base vertex not yet copied
	for di < len(sorted) {
		src := sorted[di].Src
		run := di
		for run < len(sorted) && sorted[run].Src == src {
			run++
		}
		if src > copied && copied < baseN {
			stop := src
			if stop > baseN {
				stop = baseN
			}
			copy(targets[offsets[copied]:], base.Targets[base.Offsets[copied]:base.Offsets[stop]])
		}
		var adj []VID
		if src < baseN {
			adj = base.Neighbors(src)
		}
		mergeAdjacency(targets[offsets[src]:offsets[src+1]], adj, sorted[di:run])
		copied = src + 1
		di = run
	}
	if copied < baseN {
		copy(targets[offsets[copied]:], base.Targets[base.Offsets[copied]:])
	}
	return &CSR{Offsets: offsets, Targets: targets}, nil
}

// mergedDegree counts the sorted-unique union of a sorted-unique base
// adjacency list and one source's sorted delta run (duplicates within the
// run and against the base both collapse).
func mergedDegree(adj []VID, run []Edge) int {
	d, i := 0, 0
	last := NoVertex
	for _, e := range run {
		t := e.Dst
		if t == last {
			continue
		}
		for i < len(adj) && adj[i] < t {
			d++
			i++
		}
		if i < len(adj) && adj[i] == t {
			continue // already a base edge; counted when adj[i] advances
		}
		d++
		last = t
	}
	return d + (len(adj) - i)
}

// mergeAdjacency writes the sorted-unique union of adj and the delta
// run's targets into dst (sized by mergedDegree).
func mergeAdjacency(dst, adj []VID, run []Edge) {
	k, i := 0, 0
	last := NoVertex
	for _, e := range run {
		t := e.Dst
		if t == last {
			continue
		}
		for i < len(adj) && adj[i] < t {
			dst[k] = adj[i]
			k++
			i++
		}
		if i < len(adj) && adj[i] == t {
			continue
		}
		dst[k] = t
		k++
		last = t
	}
	copy(dst[k:], adj[i:])
}
