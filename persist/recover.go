package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/graph"
)

// Result is what Recover reconstructed from a durability directory.
type Result struct {
	// Graph is the recovered graph: the checkpoint plus every valid
	// logged record, applied whole and in order — the graph at one
	// published epoch. Hand it to Maintainer.Reload at Epoch, whose one
	// BZ decomposition recomputes the cores — byte-equal to a fresh
	// decomposition of the same edges by construction.
	Graph *graph.Graph
	// Gen is the generation recovered from.
	Gen uint64
	// Epoch is the epoch of the recovered state: the checkpoint's epoch
	// plus one per replayed record, so the log chain continues from it.
	Epoch uint64

	// TailRecords / TailEdges count the replayed log records (one per
	// publication) and edge ops across all segments.
	TailRecords int64
	TailEdges   int64
	// Segments is how many AOF segments were replayed (more than one
	// when a crash hit between log rotation and the checkpoint's rename).
	Segments int
	// TornBytes is how much of the newest segment was discarded as a
	// torn or corrupt tail (0 for a clean shutdown).
	TornBytes int64
	// Truncated reports that replay stopped early at corruption in a
	// non-final segment, or at a record whose epoch does not follow the
	// one before it — everything after it is lost. Recovery still returns
	// the longest valid prefix rather than failing.
	Truncated bool
}

// Recover reconstructs state from a durability directory: load the
// newest committed checkpoint — the largest generation whose checkpoint
// exists under its final name — then replay every consecutive AOF
// segment from that generation up (normally one; two when a crash
// landed between rotation and the checkpoint's rename). A torn or
// CRC-corrupt tail in the newest segment is expected debris of a crash
// and is silently dropped; corruption anywhere else stops replay at the
// longest valid prefix and sets Truncated. So does an epoch out of
// order: record epochs must run consecutively from the checkpoint's
// epoch + 1 across segments, since every record is the next publication
// — after a gap or a repeat, the records left would build a state no
// epoch published.
//
// A directory with no committed checkpoint (fresh, missing, or never
// checkpointed) returns a Result with a nil Graph and no error — the
// caller starts empty.
// Recover only reads; it never repairs files. The Manager's Start takes
// a fresh checkpoint, which supersedes whatever debris is left behind.
func Recover(dir string) (*Result, error) {
	_, gen, err := scanGenerations(dir)
	if err != nil {
		return nil, err
	}
	if gen == 0 {
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
		torn, err := replaySegment(dir, sg, g, res)
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
			}
		}
		if res.Truncated {
			break
		}
	}
	return res, nil
}

// replaySegment applies generation gen's AOF segment's valid records to
// g and returns how many trailing bytes were discarded as torn/corrupt (0
// for a clean segment). File-level problems (unreadable, bad header) are
// errors, and so is a record whose frame holds but whose payload does
// not decode: the CRC vouches that the bytes are the ones written, so
// such a record is a history this reader must not guess at. A frame
// error (short read, CRC mismatch) is a torn tail: data, not an error.
// A record is one publication, so a torn tail drops whole publications.
// A record whose epoch is not the next one after the checkpoint's and
// every record replayed so far stops replay there: it sets Truncated, and
// the rest of the segment counts as torn.
func replaySegment(dir string, gen uint64, g *graph.Graph, res *Result) (torn int64, err error) {
	f, err := openSegment(dir, gen)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		// A segment torn inside its own header: the rotation fsyncs the
		// header before any record, so this is only reachable for the
		// segment created moments before a crash — drop it whole.
		fi, err := os.Stat(segmentPath(dir, gen))
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	br := newCountingReader(bufio.NewReaderSize(f, 64<<10))
	valid := int64(aofHeaderSize) // offset after the last fully-valid record
	sr := NewStreamReader(br)
	for {
		p, err := sr.frame()
		if err != nil {
			break // clean EOF at a record boundary, or a torn tail
		}
		rec, err := sr.decode(p)
		if err != nil {
			return 0, fmt.Errorf("persist: %s at offset %d: %w", f.Name(), valid, err)
		}
		if rec.Epoch != res.Epoch+1 {
			res.Truncated = true
			break
		}
		applyToGraph(g, rec)
		valid = aofHeaderSize + br.n
		res.Epoch++
		res.TailRecords++
		res.TailEdges += int64(len(rec.Removes) + len(rec.Inserts))
	}
	return fi.Size() - valid, nil
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
