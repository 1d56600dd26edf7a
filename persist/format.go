package persist

// On-disk formats, little-endian throughout. Two file kinds live in a
// durability directory, both named by generation:
//
//	checkpoint-%06d.ckpt     full state at the instant generation G began:
//	                         a 24-byte header (magic, version, gen,
//	                         epoch), the graph binary CSR
//	                         (graph.WriteBinary, whose own header carries
//	                         n and m), trailing CRC-32C over the whole
//	                         file; a FULLSYNC ships this very file
//	aof-%06d.log             append-only op log of everything after that
//	                         instant: a 16-byte header, then
//	                         length-prefixed CRC-framed records
//
// A generation has one commit point: its checkpoint's rename from .tmp
// to the final name, after the file's fsync and before a directory
// fsync. The current generation is the largest whose checkpoint exists
// under its final name; no other file names it.
//
// AOF record: u32 payloadLen, u32 crc32c(payload), payload. A record
// is one publication, an edge batch: its payload holds the u64 epoch
// the publication gets, a u32 removal count, a u32 insertion count and
// the (i32,i32) pairs, removals first. There is no other kind: growth
// is derivable from insert endpoints, and an explicit growth to n is
// the batch inserting the self-loop (n−1, n−1). A batch is one record
// whatever its size, so replay keeps or drops it whole, and the reader
// grows its buffer as payload bytes arrive, so no length prefix sizes
// an allocation before the CRC has checked it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/graph"
)

const (
	aofMagic      = 0x4b414f46 // "KAOF"
	ckptMagic     = 0x4b434b50 // "KCKP"
	formatVersion = 4

	aofHeaderSize   = 16 // magic u32, version u32, gen u64
	recHeaderSize   = 8  // payload len u32, crc32c u32
	batchHeaderSize = 16 // epoch u64, nRemoves u32, nInserts u32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checkpointPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%06d.ckpt", gen))
}

func segmentPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("aof-%06d.log", gen))
}

// --- AOF record encoding ----------------------------------------------------

// ensureCap grows b (append-style) until it has room for n more bytes.
func ensureCap(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), len(b)+n)
	copy(nb, b)
	return nb
}

// appendBatchRecord appends one framed batch record to dst: the
// publication at epoch that removes, then inserts, the given edges.
func appendBatchRecord(dst []byte, epoch uint64, removes, inserts []graph.Edge) []byte {
	payloadLen := batchHeaderSize + 8*(len(removes)+len(inserts))
	dst = ensureCap(dst, recHeaderSize+payloadLen)
	hdr := len(dst)
	dst = dst[:hdr+recHeaderSize+payloadLen]
	p := dst[hdr+recHeaderSize:]
	binary.LittleEndian.PutUint64(p, epoch)
	binary.LittleEndian.PutUint32(p[8:], uint32(len(removes)))
	binary.LittleEndian.PutUint32(p[12:], uint32(len(inserts)))
	o := batchHeaderSize
	for _, edges := range [2][]graph.Edge{removes, inserts} {
		for _, e := range edges {
			binary.LittleEndian.PutUint32(p[o:], uint32(e.U))
			binary.LittleEndian.PutUint32(p[o+4:], uint32(e.V))
			o += 8
		}
	}
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[hdr+4:], crc32.Checksum(p, crcTable))
	return dst
}

// appendSegmentHeader appends the 16-byte AOF file header to dst.
func appendSegmentHeader(dst []byte, gen uint64) []byte {
	dst = ensureCap(dst, aofHeaderSize)
	h := len(dst)
	dst = dst[:h+aofHeaderSize]
	binary.LittleEndian.PutUint32(dst[h:], aofMagic)
	binary.LittleEndian.PutUint32(dst[h+4:], formatVersion)
	binary.LittleEndian.PutUint64(dst[h+8:], gen)
	return dst
}

// openSegment opens generation gen's AOF segment in dir for reading and
// checks its header — magic, version and generation — leaving the file
// at its first record. A header cut short fails with io.EOF or
// io.ErrUnexpectedEOF, unwrapped. Both readers of the log, recovery and
// a sync session, open segments here.
func openSegment(dir string, gen uint64) (*os.File, error) {
	path := segmentPath(dir, gen)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [aofHeaderSize]byte
	if _, err = io.ReadFull(f, hdr[:]); err == nil {
		if m := binary.LittleEndian.Uint32(hdr[0:]); m != aofMagic {
			err = fmt.Errorf("persist: %s: bad AOF magic %#x", path, m)
		} else if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
			err = fmt.Errorf("persist: %s: unsupported AOF version %d", path, v)
		} else if hg := binary.LittleEndian.Uint64(hdr[8:]); hg != gen {
			err = fmt.Errorf("persist: %s: header generation %d != %d", path, hg, gen)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// --- checkpoint files -------------------------------------------------------

const (
	ckptHeaderSize  = 24       // magic u32, version u32, gen u64, epoch u64
	graphHeaderSize = 24       // graph.WriteBinary's: magic u32, version u32, n u64, m u64
	ckptChunk       = 64 << 10 // read buffer size
)

// checkpointSize is the exact length of a checkpoint of n vertices and m
// edges: header, graph.WriteBinary (header, degrees, targets), CRC tail.
func checkpointSize(n, m uint64) uint64 {
	return ckptHeaderSize + graphHeaderSize + 4*n + 8*m + 4
}

// writeCheckpointFile streams generation gen's checkpoint into its tmp
// file — header, g.WriteBinary, then a CRC-32C over all of it — through
// one buffered writer, so no encoded copy of the graph is ever held. The
// caller runs it at the quiescent barrier (g must not move while it
// encodes); the returned file has reached the page cache but is neither
// synced nor renamed — commitCheckpointFile does that after the barrier.
// On error the tmp file is removed.
func writeCheckpointFile(dir string, gen, epoch uint64, g *graph.Graph) (*os.File, error) {
	f, err := os.Create(checkpointPath(dir, gen) + ".tmp")
	if err != nil {
		return nil, err
	}
	if err := encodeCheckpoint(f, gen, epoch, g); err != nil {
		discardCheckpointFile(f)
		return nil, err
	}
	return f, nil
}

// encodeCheckpoint writes the checkpoint bytes to w.
func encodeCheckpoint(w io.Writer, gen, epoch uint64, g *graph.Graph) error {
	crc := crc32.New(crcTable)
	// 1 MiB is at least WriteBinary's own buffer size, so it writes
	// straight into bw instead of stacking a second buffer on it.
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	var hdr [ckptHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint64(hdr[16:], epoch)
	bw.Write(hdr[:])
	// bw keeps its first write error; WriteBinary and Flush return it.
	if err := g.WriteBinary(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte // after the flush: crc covers everything before it
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// commitCheckpointFile makes a written checkpoint durable and current:
// fsync, close, rename over the final name, directory fsync. On error
// the tmp file is removed.
func commitCheckpointFile(f *os.File, dir string, gen uint64) error {
	if err := f.Sync(); err != nil {
		discardCheckpointFile(f)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), checkpointPath(dir, gen)); err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// discardCheckpointFile closes and removes an uncommitted tmp file.
func discardCheckpointFile(f *os.File) {
	f.Close()
	os.Remove(f.Name())
}

// readCheckpointFile opens a checkpoint file and hands it, with its size,
// to ReadCheckpoint.
func readCheckpointFile(path string) (g *graph.Graph, epoch uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	g, _, epoch, err = ReadCheckpoint(f, fi.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return g, epoch, nil
}

// ReadCheckpoint decodes and verifies one checkpoint of size bytes from r
// — a checkpoint file, or the same file streamed as a follower's FULLSYNC
// — and returns its graph and the generation and epoch of its header. It
// consumes exactly size bytes of r when it succeeds, so a record stream
// may follow the checkpoint on the same reader. The graph streams out of
// r without a whole-checkpoint buffer. The embedded graph header's n and
// m must account for size exactly before anything is allocated, so a
// corrupt header or a lying size cannot make the reader allocate beyond
// what size holds; the trailing CRC is checked before anything is
// returned.
func ReadCheckpoint(r io.Reader, size int64) (g *graph.Graph, gen, epoch uint64, err error) {
	fail := func(format string, args ...any) (*graph.Graph, uint64, uint64, error) {
		return nil, 0, 0, fmt.Errorf("persist: checkpoint: "+format, args...)
	}
	if size < int64(checkpointSize(0, 0)) {
		return fail("truncated (%d bytes)", size)
	}
	crc := crc32.New(crcTable)
	// The limit keeps every read, ReadBinary's read-ahead included, short
	// of the CRC tail, so crc sees exactly the bytes it covers.
	br := bufio.NewReaderSize(io.TeeReader(io.LimitReader(r, size-4), crc), ckptChunk)
	var hdr [ckptHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fail("header: %v", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != ckptMagic {
		return fail("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
		return fail("unsupported version %d", v)
	}
	gen = binary.LittleEndian.Uint64(hdr[8:])
	epoch = binary.LittleEndian.Uint64(hdr[16:])
	// The graph header sizes ReadBinary's allocations: it must account
	// for the size first.
	gh, err := br.Peek(graphHeaderSize)
	if err != nil {
		return fail("graph header: %v", err)
	}
	n, m := binary.LittleEndian.Uint64(gh[8:]), binary.LittleEndian.Uint64(gh[16:])
	if n > math.MaxInt32 || m > uint64(size)/8 || checkpointSize(n, m) != uint64(size) {
		return fail("graph header n=%d m=%d does not match the size %d", n, m, size)
	}
	if g, err = graph.ReadBinary(br); err != nil {
		return fail("%w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fail("bytes between the graph and the CRC tail")
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return fail("CRC tail: %v", err)
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(tail[:]) {
		return fail("CRC mismatch")
	}
	return g, gen, epoch, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseGen returns the generation a committed file's name carries and
// whether the file is a checkpoint. Only the exact names checkpointPath
// and segmentPath give count (a path under the empty directory is the
// bare name), so the round trip rejects what the scan alone accepts —
// a checkpoint's tmp file, say. Any other file is ok=false.
func parseGen(name string) (gen uint64, ckpt, ok bool) {
	if _, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", &gen); err == nil && name == checkpointPath("", gen) {
		return gen, true, true
	}
	if _, err := fmt.Sscanf(name, "aof-%d.log", &gen); err == nil && name == segmentPath("", gen) {
		return gen, false, true
	}
	return 0, false, false
}

// scanGenerations reads dir once and returns the largest generation any
// committed file names, last, and the current generation, cur: the
// largest whose checkpoint is committed, 0 when none is (generations
// start at 1). A missing dir holds neither.
func scanGenerations(dir string) (last, cur uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, err
	}
	for _, e := range ents {
		if g, ckpt, ok := parseGen(e.Name()); ok {
			last = max(last, g)
			if ckpt {
				cur = max(cur, g)
			}
		}
	}
	return last, cur, nil
}

// removeStaleGenerations deletes checkpoint and segment files of
// generations strictly below keep, plus abandoned tmp files.
func removeStaleGenerations(dir string, keep uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		g, _, ok := parseGen(e.Name())
		if ok && g < keep || filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
