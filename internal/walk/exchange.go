package walk

import (
	"context"

	"flashmob/internal/graph"
)

// WCEntries is the write-combining depth per destination and channel: 16
// VIDs is one 64-byte cache line, so a full flush moves whole lines into
// the destination stream. The same geometry serves both radii of walker
// movement — the in-process shuffle's bin staging and the cross-shard
// exchange's per-peer outboxes (internal/shard).
const WCEntries = 16

// LineStage is the write-combining staging core of the §4.3 shuffle,
// extracted so every walker-movement path shares one geometry: dests ×
// Stride values of staging, where destination d's lines occupy
// [d*Stride, (d+1)*Stride) of Buf and Fill[d] is d's current fill level
// (always < WCEntries; a line flushes when it fills). Stride is
// channels×WCEntries — one WCEntries-sized line per carried channel —
// so a flush moves whole cache lines per channel into the destination
// stream. The hot loops index Buf and Fill directly (staging must cost a
// store, not a call); LineStage owns sizing, reuse, and the drain
// iteration.
type LineStage[T any] struct {
	// Stride is the staged values per destination: channels × WCEntries.
	Stride int
	// Buf holds dests × Stride staged values, destination-major.
	Buf []T
	// Fill holds each destination's line fill level, in [0, WCEntries).
	Fill []uint8
}

// NewLineStage builds staging for dests destinations carrying the given
// number of channels per record.
func NewLineStage[T any](dests, channels int) LineStage[T] {
	return LineStage[T]{
		Stride: channels * WCEntries,
		Buf:    make([]T, dests*channels*WCEntries),
		Fill:   make([]uint8, dests),
	}
}

// Resize re-targets the stage at a new (dests, channels) shape, reusing
// the buffers when they are already large enough. Fill levels reset.
func (st *LineStage[T]) Resize(dests, channels int) {
	st.Stride = channels * WCEntries
	if need := dests * st.Stride; cap(st.Buf) >= need {
		st.Buf = st.Buf[:need]
	} else {
		st.Buf = make([]T, need)
	}
	if cap(st.Fill) >= dests {
		st.Fill = st.Fill[:dests]
		clear(st.Fill)
	} else {
		st.Fill = make([]uint8, dests)
	}
}

// Line returns destination d's staging lines.
func (st *LineStage[T]) Line(d int) []T {
	return st.Buf[d*st.Stride : (d+1)*st.Stride]
}

// Batch is one walker batch moving through an Exchange: the walker
// location channel W, any aux channels permuted identically with it
// (node2vec predecessors, order-k history), and — for cross-shard
// movement, where walkers leave the array that implies their identity —
// the global walker ids. Out/OutIDs/OutAux receive the moved batch.
type Batch struct {
	// IDs are the records' global walker ids, ascending. Nil for the
	// in-process Shuffler, whose permutation keeps identity implicit in
	// array order.
	IDs []uint32
	// W is the walker location channel; W[j] is record j's vertex.
	W []graph.VID
	// Aux are the auxiliary channels riding with the walkers.
	Aux [][]graph.VID
	// OutIDs, Out, and OutAux receive the moved records. The Shuffler
	// writes the bin-grouped permutation of all len(W) records (OutIDs
	// unused). The cross-shard exchange writes the post-exchange local
	// set — survivors plus immigrants, ascending by id — re-slicing the
	// three to the new local record count.
	OutIDs []uint32
	// Out receives the moved records' locations.
	Out []graph.VID
	// OutAux receives the moved records' auxiliary channels, one slice
	// per channel of Aux, each parallel to Out.
	OutAux [][]graph.VID
}

// Exchange is the destination-agnostic contract of the walker-movement
// layer: an implementation routes every record of a batch to an integer
// destination, staging records through write-combining lines (LineStage)
// so each destination's stream moves in sequential cache-line bursts,
// then delivers the staged streams in bulk. Two implementations exist:
//
//   - *Shuffler (in process): destinations are the partition plan's
//     outer-shuffle bins, delivery is placement into the shuffled walker
//     array — Move is the forward pass of §4.3.
//   - *shard.Exchange (cross-shard): destinations are peer engine
//     shards, delivery is bulk frames over channels (in-process shards)
//     or length-prefixed TCP frames (multi-process).
//
// The seam makes "where a walker goes next" pluggable: the sharded
// engine's superstep loop alternates local Shuffler movement with
// cross-shard Moves without caring which side of the network a
// destination lives on.
type Exchange interface {
	// NumDests returns how many destinations records can route to.
	NumDests() int
	// Move routes batch b: every record lands at its destination, and
	// b's Out slices receive the records local to the caller afterwards
	// (see Batch). The context bounds cross-destination delivery; the
	// in-process Shuffler never blocks and ignores it.
	Move(ctx context.Context, b *Batch) error
}

// Compile-time check: the in-process Shuffler implements Exchange.
var _ Exchange = (*Shuffler)(nil)

// NumDests returns the outer-shuffle bin count — the Shuffler's
// destinations under the Exchange contract.
func (s *Shuffler) NumDests() int { return len(s.plan.Bins()) }

// Move implements Exchange: the batch's records are routed to their
// partition bins in write-combined bulk, b.Out/b.OutAux receiving the
// bin-grouped permutation of all of them (no record leaves the process,
// so the output length equals the input length and b.OutIDs is left
// untouched). Move is exactly ForwardMulti — the §4.3 forward pass —
// under the destination-agnostic signature.
func (s *Shuffler) Move(_ context.Context, b *Batch) error {
	return s.ForwardMulti(b.W, b.Out, b.Aux, b.OutAux)
}
