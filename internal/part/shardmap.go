package part

import (
	"fmt"
	"sort"

	"flashmob/internal/graph"
)

// RangeMap maps vertices to the owner of the contiguous vertex range
// holding them: owner o holds [starts[o], starts[o+1]). It is the flat
// ownership lookup behind the sharded topology's vertex ranges
// (ShardMap), replacing private division math with one audited
// structure. Small graphs get a direct per-vertex table (one load on
// the per-step hot path); larger ones a binary search over the starts.
type RangeMap struct {
	starts []graph.VID
	direct []uint16 // per-vertex owner table when the graph is small
}

// rangeMapDirectMax caps the vertex count for the direct table (2 B per
// vertex) — the same cache-residency tradeoff as the plan Lookup's
// directLookupMax.
const rangeMapDirectMax = 1 << 18

// NewRangeMap builds the map from range boundaries: starts[0] must be 0,
// the entries non-decreasing, and starts[len-1] the vertex count. Owners
// number len(starts)-1 and at most 65535 (the direct table's width).
func NewRangeMap(starts []graph.VID) (*RangeMap, error) {
	if len(starts) < 2 {
		return nil, fmt.Errorf("part: range map needs at least one range")
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("part: range map must start at vertex 0, got %d", starts[0])
	}
	if len(starts)-1 > 1<<16-1 {
		return nil, fmt.Errorf("part: %d ranges exceed the range map's 65535-owner limit", len(starts)-1)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return nil, fmt.Errorf("part: range map starts not sorted at %d", i)
		}
	}
	m := &RangeMap{starts: append([]graph.VID(nil), starts...)}
	if v := starts[len(starts)-1]; uint64(v) <= rangeMapDirectMax {
		m.direct = make([]uint16, v)
		for o := 0; o < len(starts)-1; o++ {
			for x := starts[o]; x < starts[o+1]; x++ {
				m.direct[x] = uint16(o)
			}
		}
	}
	return m, nil
}

// NewEvenRangeMap cuts [0, n) into owners equal ceil(n/owners)-sized
// ranges — the even range partitioning the distributed engine uses, with
// its exact boundary semantics (a short final range absorbs the
// remainder; owners beyond the vertex count own empty ranges).
func NewEvenRangeMap(n uint32, owners int) (*RangeMap, error) {
	if n == 0 || owners <= 0 {
		return nil, fmt.Errorf("part: even range map needs vertices and owners")
	}
	per := (n + uint32(owners) - 1) / uint32(owners)
	starts := make([]graph.VID, owners+1)
	for o := 1; o <= owners; o++ {
		s := uint64(o) * uint64(per)
		if s > uint64(n) {
			s = uint64(n)
		}
		starts[o] = graph.VID(s)
	}
	return NewRangeMap(starts)
}

// NumOwners returns the range count.
func (m *RangeMap) NumOwners() int { return len(m.starts) - 1 }

// OwnerOf returns the owner of vertex v.
func (m *RangeMap) OwnerOf(v graph.VID) int {
	if m.direct != nil {
		return int(m.direct[v])
	}
	// The first start past v bounds v's range on the right.
	return sort.Search(len(m.starts)-1, func(o int) bool { return m.starts[o+1] > v })
}

// Range returns owner o's vertex range [lo, hi).
func (m *RangeMap) Range(o int) (lo, hi graph.VID) { return m.starts[o], m.starts[o+1] }

// Starts returns the range boundaries (len NumOwners()+1). Callers must
// not mutate it.
func (m *RangeMap) Starts() []graph.VID { return m.starts }

// ShardMap is the two-level VID → (shard, VP) mapping of the sharded
// topology (internal/shard): level one is the plan's flat vertex → VP
// lookup, level two a VP → shard table. Shards own contiguous runs of
// whole partitions — a VP never splits across shards — which is the
// property the sharded engine's bitwise determinism rests on: a
// partition's walker chunk on its owning shard is exactly the chunk the
// single-engine run would sample, so the per-(partition, sub-shard)
// seed schedule and the PS buffer consumption replay identically.
// Because VPs tile the (degree-sorted) vertex space in order, each
// shard's partitions also form one contiguous vertex range, exposed as
// a RangeMap for layers that think in vertices.
type ShardMap struct {
	lk      *Lookup
	vpShard []uint16
	vpLo    []int // shard → first owned VP, len shards+1
	ranges  *RangeMap
	shards  int
}

// NewShardMap cuts the plan's partitions into shards contiguous runs,
// balanced by vertex mass (each shard closes once it reaches its even
// share of the remaining vertices). Every shard owns at least one
// partition; shards beyond the partition count are an error.
func NewShardMap(p *Plan, shards int) (*ShardMap, error) {
	if p == nil || p.Lookup() == nil {
		return nil, fmt.Errorf("part: shard map needs a finalized plan")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("part: shard count must be positive, got %d", shards)
	}
	if shards > p.NumVPs() {
		return nil, fmt.Errorf("part: %d shards exceed the plan's %d partitions", shards, p.NumVPs())
	}
	if shards > 1<<16-1 {
		return nil, fmt.Errorf("part: %d shards exceed the shard map's 65535 limit", shards)
	}
	m := &ShardMap{
		lk:      p.Lookup(),
		vpShard: make([]uint16, p.NumVPs()),
		vpLo:    make([]int, shards+1),
		shards:  shards,
	}
	nvp := p.NumVPs()
	total := uint64(p.V)
	var acc uint64
	vp := 0
	starts := make([]graph.VID, shards+1)
	for s := 0; s < shards; s++ {
		m.vpLo[s] = vp
		starts[s] = p.VPs[vp].Start
		// This shard's target: its even share of what is left, leaving at
		// least one partition for each shard still to come.
		goal := acc + (total-acc)/uint64(shards-s)
		for vp < nvp-(shards-s-1) {
			acc += uint64(p.VPs[vp].Vertices())
			m.vpShard[vp] = uint16(s)
			vp++
			if acc >= goal {
				break
			}
		}
	}
	m.vpLo[shards] = nvp
	starts[shards] = graph.VID(p.V)
	var err error
	if m.ranges, err = NewRangeMap(starts); err != nil {
		return nil, err
	}
	return m, nil
}

// NumShards returns the shard count.
func (m *ShardMap) NumShards() int { return m.shards }

// ShardOf returns the shard owning vertex v, through the two levels:
// vertex → VP (the plan lookup) then VP → shard.
func (m *ShardMap) ShardOf(v graph.VID) int { return int(m.vpShard[m.lk.VPOf(v)]) }

// Locate returns both levels for vertex v: its owning shard and its
// partition index.
func (m *ShardMap) Locate(v graph.VID) (shard, vp int) {
	vp = m.lk.VPOf(v)
	return int(m.vpShard[vp]), vp
}

// ShardOfVP returns the shard owning partition vp.
func (m *ShardMap) ShardOfVP(vp int) int { return int(m.vpShard[vp]) }

// VPRange returns shard s's owned partition range [lo, hi).
func (m *ShardMap) VPRange(s int) (lo, hi int) { return m.vpLo[s], m.vpLo[s+1] }

// Ranges returns the shards' contiguous vertex ranges.
func (m *ShardMap) Ranges() *RangeMap { return m.ranges }
