package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/graph"
)

// Result is what Recover reconstructed from a durability directory.
type Result struct {
	// Graph is the recovered graph: the checkpoint plus every valid
	// logged op, applied in order. Hand it to kcore.New, whose one BZ
	// decomposition recomputes the cores — byte-equal to a fresh
	// decomposition of the same edges by construction.
	Graph *graph.Graph
	// Gen is the generation recovered from; Epoch the checkpoint's
	// snapshot epoch.
	Gen   uint64
	Epoch uint64

	// TailRecords / TailEdges count the replayed log records and edge
	// ops across all segments.
	TailRecords int64
	TailEdges   int64
	// Segments is how many AOF segments were replayed (more than one
	// when a crash hit between log rotation and the manifest update).
	Segments int
	// TornBytes is how much of the newest segment was discarded as a
	// torn or corrupt tail (0 for a clean shutdown).
	TornBytes int64
	// Truncated reports that replay stopped early at corruption in a
	// non-final segment — everything after it is lost. Recovery still
	// returns the longest valid prefix rather than failing.
	Truncated bool
}

// Recover reconstructs state from a durability directory: load the
// manifest's checkpoint, then replay every consecutive AOF segment from
// that generation up (normally one; two when a crash landed between
// rotation and manifest update). A torn or CRC-corrupt tail in the
// newest segment is expected debris of a crash and is silently dropped;
// corruption anywhere else stops replay at the longest valid prefix and
// sets Truncated.
//
// A directory with no manifest (fresh, or never checkpointed) returns a
// Result with a nil Graph and no error — the caller starts empty.
// Recover only reads; it never repairs files. The Manager's Start takes
// a fresh checkpoint, which supersedes whatever debris is left behind.
func Recover(dir string) (*Result, error) {
	gen, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &Result{}, nil
	}
	g, epoch, err := readCheckpointFile(checkpointPath(dir, gen))
	if err != nil {
		return nil, err
	}
	res := &Result{Graph: g, Gen: gen, Epoch: epoch}

	// Which segments exist above gen? Replay stops at the first gap:
	// generations are consecutive, so a missing segment means the later
	// files are stale debris, not continuation.
	var segs []uint64
	for sg := gen; ; sg++ {
		if _, err := os.Stat(segmentPath(dir, sg)); err != nil {
			break
		}
		segs = append(segs, sg)
	}
	for i, sg := range segs {
		final := i == len(segs)-1
		torn, err := replaySegment(segmentPath(dir, sg), sg, g, res)
		if err != nil {
			return nil, err
		}
		res.Segments++
		if torn > 0 {
			if final {
				res.TornBytes = torn
			} else {
				// Corruption mid-history: ops beyond it cannot be
				// trusted (order matters), so stop here.
				res.Truncated = true
				break
			}
		}
	}
	return res, nil
}

// replaySegment applies one AOF segment's valid records to g and returns
// how many trailing bytes were discarded as torn/corrupt (0 for a clean
// segment). File-level problems (unreadable, bad header magic) are
// errors; record-level corruption is data, not an error.
func replaySegment(path string, gen uint64, g *graph.Graph, res *Result) (torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := newCountingReader(f)
	var hdr [aofHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// A segment torn inside its own header: the rotation fsyncs the
		// header before any record, so this is only reachable for the
		// segment created moments before a crash — drop it whole.
		return size, nil
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != aofMagic {
		return 0, fmt.Errorf("persist: %s: bad AOF magic %#x", path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
		return 0, fmt.Errorf("persist: %s: unsupported AOF version %d", path, v)
	}
	if hg := binary.LittleEndian.Uint64(hdr[8:]); hg != gen {
		return 0, fmt.Errorf("persist: %s: header generation %d != %d", path, hg, gen)
	}
	valid := int64(aofHeaderSize) // offset after the last fully-valid record
	var rec [recHeaderSize]byte
	payload := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			break // clean EOF at a record boundary, or torn header
		}
		payloadLen := binary.LittleEndian.Uint32(rec[0:])
		wantCRC := binary.LittleEndian.Uint32(rec[4:])
		if payloadLen == 0 || payloadLen > maxRecordPayload {
			break // garbage length prefix — treat as torn
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		} else {
			payload = payload[:payloadLen]
		}
		if _, err := io.ReadFull(br, payload); err != nil {
			break // torn mid-payload
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			break // bit rot or torn write inside the payload
		}
		edges, err := applyRecord(g, payload)
		if err != nil {
			return 0, fmt.Errorf("persist: %s at offset %d: %w", path, valid, err)
		}
		valid = br.n
		res.TailRecords++
		res.TailEdges += edges
	}
	return size - valid, nil
}

// applyRecord applies one CRC-verified record payload to g at graph
// level. The payload is trusted for well-formedness only as far as the
// CRC vouches; semantic bounds are still checked so a record from a
// mismatched history cannot panic the replay.
func applyRecord(g *graph.Graph, p []byte) (edges int64, err error) {
	kind := p[0]
	switch kind {
	case recInsert, recRemove:
		if len(p) < 5 {
			return 0, fmt.Errorf("edge record too short (%d bytes)", len(p))
		}
		count := binary.LittleEndian.Uint32(p[1:])
		if uint64(len(p)) != 5+8*uint64(count) {
			return 0, fmt.Errorf("edge record length %d != header count %d", len(p), count)
		}
		o := 5
		for i := uint32(0); i < count; i++ {
			u := int32(binary.LittleEndian.Uint32(p[o:]))
			v := int32(binary.LittleEndian.Uint32(p[o+4:]))
			o += 8
			if u < 0 || v < 0 {
				return 0, fmt.Errorf("negative vertex id (%d,%d)", u, v)
			}
			// Logged ops are post-prepareBatch: insert endpoints were in
			// range when logged, so grow-to-fit reproduces the implicit
			// growth the engine performed (which is why implicit grows
			// need no records of their own).
			if kind == recInsert {
				if hi := max(u, v); int(hi) >= g.N() {
					g.Grow(int(hi) + 1)
				}
				g.AddEdge(u, v)
			} else {
				if int(u) < g.N() && int(v) < g.N() {
					g.RemoveEdge(u, v)
				}
			}
		}
		return int64(count), nil
	case recGrow:
		if len(p) != 9 {
			return 0, fmt.Errorf("grow record length %d", len(p))
		}
		n := binary.LittleEndian.Uint64(p[1:])
		if n > math.MaxInt32 {
			return 0, fmt.Errorf("grow to implausible n=%d", n)
		}
		if int(n) > g.N() {
			g.Grow(int(n))
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("unknown record kind %d", kind)
	}
}

// countingReader tracks the absolute offset consumed from the underlying
// reader, so replay knows the exact boundary of the last valid record.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
