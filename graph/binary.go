package graph

// Binary adjacency serialization — the checkpoint wire format of the
// durability subsystem (package persist). The layout is a degree-prefixed
// CSR, little-endian throughout:
//
//	u32 magic "KGR1"  u32 version
//	u64 n  u64 m
//	u32 degree[n]
//	i32 targets[2m]   (adjacency of vertex 0, then 1, …)
//
// Decoding reads the degrees into the per-vertex records and the targets
// straight into an exact-fit arena, so loading a checkpointed graph is one
// big read plus an O(n) pass over the degrees — the reason recovery beats
// re-parsing a text edge list. Integrity is the caller's business: persist
// frames the stream with a CRC; ReadBinary itself validates only structure
// (counts, bounds), not adjacency symmetry.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	binaryMagic   = 0x4b475231 // "KGR1"
	binaryVersion = 1
)

// binaryChunk is the encode/decode staging-buffer size: large enough to
// amortize Write/Read calls, small enough to stay cache-friendly.
const binaryChunk = 64 << 10

// WriteBinary writes the graph in the binary CSR format. The graph must
// be quiescent for the duration of the call.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, binaryChunk)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.M()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binaryChunk]byte
	k := 0
	put := func(x uint32) error {
		if k+4 > len(buf) {
			if _, err := bw.Write(buf[:k]); err != nil {
				return err
			}
			k = 0
		}
		binary.LittleEndian.PutUint32(buf[k:], x)
		k += 4
		return nil
	}
	for _, r := range g.recs {
		if err := put(r.len); err != nil {
			return err
		}
	}
	for _, r := range g.recs {
		for _, v := range g.arena[r.off : r.off+r.len] {
			if err := put(uint32(v)); err != nil {
				return err
			}
		}
	}
	if k > 0 {
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph in the binary CSR format written by
// WriteBinary. Structural corruption (bad magic, counts that do not add
// up, out-of-range neighbor ids) returns an error; callers wanting
// bit-level integrity should frame the stream with a checksum.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, binaryChunk)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	m := binary.LittleEndian.Uint64(hdr[16:])
	// n is bounded by int32 (adjacency ids), not MaxVertexID: explicit
	// growth (AddVertices / WithMaxVertices) may raise a graph past the
	// data-driven construction ceiling, and a checkpoint must round-trip
	// whatever the maintainer actually held.
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: binary n=%d beyond int32", n)
	}
	if m > uint64(n)*uint64(MaxVertexID) { // loose sanity bound
		return nil, fmt.Errorf("graph: binary m=%d implausible for n=%d", m, n)
	}
	if m > maxEntries/2 {
		return nil, fmt.Errorf("graph: binary m=%d overflows the adjacency arena", m)
	}
	g := New(int(n))
	var deg [binaryChunk / 4]int32
	var total uint64
	for v := 0; v < len(g.recs); {
		chunk := deg[:min(len(deg), len(g.recs)-v)]
		if err := readInt32s(br, chunk); err != nil {
			return nil, fmt.Errorf("graph: binary degrees: %w", err)
		}
		for _, d := range chunk {
			if d < 0 {
				return nil, fmt.Errorf("graph: binary negative degree %d", d)
			}
			total += uint64(d)
			g.recs[v].len, g.recs[v].cap = uint32(d), uint32(d)
			v++
		}
	}
	if total != 2*m {
		return nil, fmt.Errorf("graph: binary degree sum %d != 2m=%d", total, 2*m)
	}
	g.layout()
	if err := readInt32s(br, g.arena); err != nil {
		return nil, fmt.Errorf("graph: binary targets: %w", err)
	}
	for _, w := range g.arena {
		if w < 0 || uint64(w) >= n {
			return nil, fmt.Errorf("graph: binary neighbor id %d out of range", w)
		}
	}
	g.m.Store(int64(m))
	return g, nil
}

// readInt32s fills dst from br, little-endian, via a chunked staging
// buffer.
func readInt32s(br *bufio.Reader, dst []int32) error {
	var buf [binaryChunk]byte
	for len(dst) > 0 {
		want := len(dst) * 4
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return err
		}
		for i := 0; i < want; i += 4 {
			dst[0] = int32(binary.LittleEndian.Uint32(buf[i:]))
			dst = dst[1:]
		}
	}
	return nil
}
