package shard

import (
	"context"
	"fmt"
	"math"

	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

// Exchange is the cross-shard walker movement: records route to the shard
// owning their new vertex. Emigrants stage through the same
// write-combining LineStage geometry as the in-process gather — one
// line of whole records per destination shard, flushed to that peer's
// outbox as it fills — and ship as one bulk frame per peer per round.
// A record on the wire is words=2+channels VIDs: [walker id, vertex,
// aux...], the aux channels riding with the walker exactly as they ride
// through the shuffle.
//
// Move is one BSP exchange round: stage+send to every peer (empty frames
// included — they are the barrier), then receive from every peer and
// merge survivors with immigrants, ascending by walker id. The ascending
// order is what keeps sharded runs bitwise-identical: each shard's local
// walker array is always the id-ordered subsequence of the global
// array, so every partition chunk it feeds the sampler matches the
// single-engine chunk, and its cohort segments follow from the ids.
type Exchange struct {
	self  int
	smap  *part.ShardMap
	tr    Transport
	m     *Metrics
	total uint64 // the run's walker count: every id is below it
	words int
	stage walk.LineStage[graph.VID]
	// outbox ping-pongs two generations of per-peer frames: a frame's
	// backing is reused two rounds after it was sent, by which time BSP
	// lockstep guarantees the receiver consumed it (it cannot have
	// advanced a round without it).
	outbox [2][][]graph.VID
	parity int
	// in[s] is the frame received from peer s this round; offs[s] the
	// merge cursor into it.
	in   [][]graph.VID
	offs []int
}

// NewExchange builds shard self's exchange over the given transport for
// a run of total walkers carrying channels aux channels each.
func NewExchange(self int, smap *part.ShardMap, tr Transport, m *Metrics, total uint64, channels int) *Exchange {
	S := smap.NumShards()
	ex := &Exchange{self: self, smap: smap, tr: tr, m: m, total: total, words: 2 + channels,
		in: make([][]graph.VID, S), offs: make([]int, S)}
	ex.stage.Resize(S, ex.words)
	ex.outbox[0] = make([][]graph.VID, S)
	ex.outbox[1] = make([][]graph.VID, S)
	return ex
}

// batch is one exchange round's records. ids/w/aux hold the shard's
// post-step local records, ascending by id: global walker ids, vertices,
// and the exchange's aux channels riding with them (each at least len(w)
// long). outIDs/out/outAux receive the post-exchange set and must not
// share backing with the inputs: Move overwrites ids/w/aux, compacting
// the round's survivors in place at their front.
type batch struct {
	ids    []uint32
	w      []graph.VID
	aux    [][]graph.VID
	outIDs []uint32
	out    []graph.VID
	outAux [][]graph.VID
}

// Move runs one exchange round over b. On return b.outIDs/b.out/b.outAux
// (fitted to the new local count: re-sliced, or replaced when their
// capacity is short) hold the post-exchange set — survivors plus
// immigrants, ascending by id. A peer frame carrying a vertex this
// shard does not own, an id at or past the run's total, or an id not
// strictly above the previous merged one (an unsorted frame, or an id
// two peers both sent) fails the round, naming the peer.
func (ex *Exchange) Move(ctx context.Context, b *batch) error {
	S := ex.smap.NumShards()
	channels, words := ex.words-2, ex.words
	out := ex.outbox[ex.parity]
	ex.parity ^= 1
	for d := range out {
		out[d] = out[d][:0]
	}

	// Route: survivors compact in order to the front of b's inputs;
	// emigrants stage through the write-combining lines and flush whole
	// lines into the peer outbox.
	buf, fill, stride := ex.stage.Buf, ex.stage.Fill, ex.stage.Stride
	surv := 0
	for j, v := range b.w {
		d := ex.smap.ShardOf(v)
		if d == ex.self {
			b.ids[surv], b.w[surv] = b.ids[j], v
			for c := 0; c < channels; c++ {
				b.aux[c][surv] = b.aux[c][j]
			}
			surv++
			continue
		}
		base := d*stride + int(fill[d])*words
		buf[base] = graph.VID(b.ids[j])
		buf[base+1] = v
		for c := 0; c < channels; c++ {
			buf[base+2+c] = b.aux[c][j]
		}
		if fill[d]++; int(fill[d]) == walk.WCEntries {
			out[d] = append(out[d], buf[d*stride:d*stride+walk.WCEntries*words]...)
			fill[d] = 0
		}
	}
	for d := 0; d < S; d++ {
		if f := int(fill[d]); f > 0 {
			out[d] = append(out[d], buf[d*stride:d*stride+f*words]...)
			fill[d] = 0
		}
	}

	// Send to every peer in fixed order — empty frames are the barrier.
	for d := 0; d < S; d++ {
		if d == ex.self {
			continue
		}
		if err := ex.tr.Send(ctx, d, out[d]); err != nil {
			return err
		}
		if m := ex.m; m != nil {
			m.Emigrants.Add(ex.self, uint64(len(out[d])/words))
			m.Frames.Add(ex.self, 1)
			m.FrameWords.Add(ex.self, uint64(len(out[d])))
		}
	}

	// Receive one frame from every peer, fixed order.
	lo, hi := ex.smap.Ranges().Range(ex.self)
	newN := surv
	for s := 0; s < S; s++ {
		if s == ex.self {
			ex.in[s] = nil
			continue
		}
		f, err := ex.tr.Recv(ctx, s)
		if err != nil {
			return err
		}
		if len(f)%words != 0 {
			return fmt.Errorf("shard: frame from shard %d is %d words, not a multiple of %d", s, len(f), words)
		}
		ex.in[s] = f
		newN += len(f) / words
		if m := ex.m; m != nil {
			m.Immigrants.Add(ex.self, uint64(len(f)/words))
		}
	}

	b.outIDs = fit(b.outIDs, newN)
	b.out = fit(b.out, newN)
	for c := range b.outAux {
		b.outAux[c] = fit(b.outAux[c], newN)
	}

	// S-way merge ascending by id: survivors and each peer frame are
	// already id-sorted (every shard scans its id-ordered array), and ids
	// are globally unique, so a linear min-pick reconstructs the global
	// subsequence order. Each immigrant's id and vertex are checked as it
	// is copied; a failed round's partial output is abandoned.
	si := 0
	offs := ex.offs
	clear(offs)
	for i := 0; i < newN; i++ {
		best := -1 // -1 = survivors, else peer index
		bestID := uint32(math.MaxUint32)
		haveBest := false
		if si < surv {
			bestID = b.ids[si]
			haveBest = true
		}
		for s := 0; s < S; s++ {
			f := ex.in[s]
			if offs[s] >= len(f) {
				continue
			}
			if id := uint32(f[offs[s]]); !haveBest || id < bestID {
				best, bestID, haveBest = s, id, true
			}
		}
		if best < 0 {
			b.outIDs[i] = b.ids[si]
			b.out[i] = b.w[si]
			for c := range b.outAux {
				b.outAux[c][i] = b.aux[c][si]
			}
			si++
			continue
		}
		f := ex.in[best]
		o := offs[best]
		if id := uint64(f[o]); id >= ex.total || (i > 0 && id <= uint64(b.outIDs[i-1])) {
			return fmt.Errorf("shard: frame from shard %d carries walker id %d out of order or past the run's %d walkers", best, id, ex.total)
		}
		v := f[o+1]
		if v < lo || v >= hi {
			return fmt.Errorf("shard: frame from shard %d carries walker %d on vertex %d, outside this shard's vertices [%d, %d)", best, f[o], v, lo, hi)
		}
		b.outIDs[i] = uint32(f[o])
		b.out[i] = v
		for c := range b.outAux {
			b.outAux[c][i] = f[o+2+c]
		}
		offs[best] = o + words
	}
	return nil
}
