package walk

// WCEntries is the write-combining depth per destination and channel: 16
// VIDs is one 64-byte cache line, so a full flush moves whole lines into
// the destination stream. The same geometry serves both radii of walker
// movement — the reverse gather's per-bin index staging and the
// cross-shard exchange's per-peer outboxes (internal/shard).
const WCEntries = 16

// LineStage is the write-combining staging core of the §4.3 shuffle,
// shared by the reverse gather and the cross-shard exchange so both use
// one geometry: dests ×
// Stride values of staging, where destination d's lines occupy
// [d*Stride, (d+1)*Stride) of Buf and Fill[d] is d's current fill level
// (always < WCEntries; a line flushes when it fills). Stride is
// channels×WCEntries — one WCEntries-sized line per carried channel —
// so a flush moves whole cache lines per channel into the destination
// stream. The hot loops index Buf and Fill directly (staging must cost a
// store, not a call); LineStage owns sizing and reuse.
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
