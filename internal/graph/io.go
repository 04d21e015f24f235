package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary CSR format (little-endian):
//
//	magic   uint32  = 0x464D4F42 ("BOMF")
//	version uint32  = 1
//	flags   uint32  (bit 0: weighted)
//	nVert   uint32
//	nEdge   uint64
//	offsets [nVert+1]uint64
//	targets [nEdge]uint32
//	weights [nEdge]float32   (only if weighted)
const (
	binMagic     = 0x464D4F42
	binVersion   = 1
	flagWeighted = 1 << 0
)

// WriteBinary serializes g to w in the binary CSR format.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if g.Weights != nil {
		flags |= flagWeighted
	}
	hdr := []interface{}{
		uint32(binMagic), uint32(binVersion), flags,
		g.NumVertices(), g.NumEdges(),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return fmt.Errorf("graph: write offsets: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Targets); err != nil {
		return fmt.Errorf("graph: write targets: %w", err)
	}
	if g.Weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return fmt.Errorf("graph: write weights: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a CSR written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version, flags, nVert uint32
	var nEdge uint64
	for _, p := range []interface{}{&magic, &version, &flags, &nVert, &nEdge} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != binVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	// Counts come from an untrusted header: allocate incrementally so a
	// corrupt or truncated stream errors out instead of attempting a
	// multi-gigabyte allocation.
	offsets, err := readChunkedU64(br, uint64(nVert)+1)
	if err != nil {
		return nil, fmt.Errorf("graph: read offsets: %w", err)
	}
	targets, err := readChunkedU32(br, nEdge)
	if err != nil {
		return nil, fmt.Errorf("graph: read targets: %w", err)
	}
	g := &CSR{Offsets: offsets, Targets: targets}
	if flags&flagWeighted != 0 {
		raw, err := readChunkedU32(br, nEdge)
		if err != nil {
			return nil, fmt.Errorf("graph: read weights: %w", err)
		}
		g.Weights = make([]float32, len(raw))
		for i, v := range raw {
			g.Weights[i] = math.Float32frombits(v)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunkCap bounds per-step allocation while reading untrusted counts.
const readChunkCap = 1 << 22 // entries per chunk (16-32MB)

// readChunkedU64 reads n little-endian uint64s, growing the buffer in
// bounded chunks so truncated streams fail before large allocations.
func readChunkedU64(r io.Reader, n uint64) ([]uint64, error) {
	out := make([]uint64, 0, min64(n, readChunkCap))
	buf := make([]byte, 8*min64(n, readChunkCap))
	for uint64(len(out)) < n {
		want := min64(n-uint64(len(out)), readChunkCap)
		chunk := buf[:8*want]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for i := uint64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint64(chunk[8*i:]))
		}
	}
	return out, nil
}

// readChunkedU32 reads n little-endian uint32s with the same strategy.
func readChunkedU32(r io.Reader, n uint64) ([]uint32, error) {
	out := make([]uint32, 0, min64(n, readChunkCap))
	buf := make([]byte, 4*min64(n, readChunkCap))
	for uint64(len(out)) < n {
		want := min64(n-uint64(len(out)), readChunkCap)
		chunk := buf[:4*want]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for i := uint64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint32(chunk[4*i:]))
		}
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Build sizes a CSR by the largest vertex ID, 24 bytes for every ID
// below it, so an edge list whose IDs are far sparser than its edges —
// the one-line "2942967295 0" asks for tens of gigabytes — would exhaust memory
// instead of failing. ReadEdgeList refuses an ID space larger than both
// sparseIDFloor and maxIDsPerEdge IDs per edge.
const (
	sparseIDFloor = 1 << 20
	maxIDsPerEdge = 64
)

// ReadEdgeList parses a whitespace-separated "src dst [weight]" edge list
// (SNAP-style), skipping blank lines and lines starting with '#' or '%'.
// It rejects lists whose vertex IDs are too sparse to build (see
// maxIDsPerEdge); renumber such a list densely first.
func ReadEdgeList(r io.Reader) ([]Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	var maxID VID
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %w", lineNo, err)
		}
		if src >= uint64(NoVertex) || dst >= uint64(NoVertex) {
			return nil, fmt.Errorf("graph: line %d: vertex ID %#x is reserved", lineNo, NoVertex)
		}
		maxID = max(maxID, VID(src), VID(dst))
		e := Edge{Src: VID(src), Dst: VID(dst), Weight: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			e.Weight = float32(w)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan edge list: %w", err)
	}
	if ids := uint64(maxID) + 1; ids > sparseIDFloor && ids > maxIDsPerEdge*uint64(len(edges)) {
		return nil, fmt.Errorf("graph: vertex ID %d is too sparse for %d edges (at most %d IDs per edge); renumber the list densely", maxID, len(edges), maxIDsPerEdge)
	}
	return edges, nil
}

// WriteEdgeList emits g as a "src dst" (or "src dst weight") text edge
// list, one edge per line.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for v := uint32(0); v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		ws := g.EdgeWeights(v)
		for i, t := range adj {
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, t, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, t)
			}
			if err != nil {
				return fmt.Errorf("graph: write edge list: %w", err)
			}
		}
	}
	return bw.Flush()
}
