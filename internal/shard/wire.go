package shard

import (
	"encoding/binary"
	"fmt"
	"io"

	"flashmob/internal/graph"
)

// Wire framing shared by the TCP exchange transport and the
// coordinator↔worker run protocol (docs/SERVING.md, "Sharded serving").
// Every frame is [1-byte type][4-byte little-endian payload length]
// [payload]; numeric payloads are little-endian uint32 words.
const (
	// frameHello opens a peer mesh connection: payload is one word, the
	// dialing shard's index.
	frameHello = byte(0x01)
	// frameWalkers carries one superstep's exchange round — every
	// cohort's emigrants — to a peer: payload is records × (2+channels)
	// words, [global id, vertex, aux...] each, channels the run's widest
	// aux count. Empty payloads are the barrier.
	frameWalkers = byte(0x02)
	// frameRun opens a run on a worker: payload is the JSON runHeader,
	// cohorts in execution order.
	frameRun = byte(0x10)
	// frameInit scatters the worker's initial walkers to it: payload is
	// (global id, vertex) word pairs, ids ascending across the run's
	// init frames. May repeat.
	frameInit = byte(0x11)
	// frameGo marks the end of init frames; the worker starts stepping.
	frameGo = byte(0x12)
	// framePaths streams recorded positions back to the coordinator:
	// payload is (step, global id, vertex) word triples.
	framePaths = byte(0x20)
	// frameDone ends a worker's run: payload is the JSON doneTrailer.
	frameDone = byte(0x21)
	// frameErr aborts a run: payload is UTF-8 error text.
	frameErr = byte(0x22)
)

// maxFramePayload caps a frame's payload bytes: a defense against
// corrupt length prefixes, and the chunking granularity for init and
// path streams.
const maxFramePayload = 1 << 24

// writeFrame writes one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting payloads past maxFramePayload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("shard: frame of %d bytes exceeds the %d cap", n, maxFramePayload)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// vidsToBytes encodes words little-endian.
func vidsToBytes(vs []graph.VID) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// bytesToVIDs decodes a little-endian word payload.
func bytesToVIDs(b []byte) ([]graph.VID, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("shard: %d-byte payload is not a word multiple", len(b))
	}
	vs := make([]graph.VID, len(b)/4)
	for i := range vs {
		vs[i] = graph.VID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs, nil
}
