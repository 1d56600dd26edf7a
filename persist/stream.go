package persist

// Replication streaming: a follower's sync session reads the leader's
// log, the one copy of the op stream. StartSync takes a checkpoint and,
// before another checkpoint can delete them, opens that generation's
// checkpoint file and AOF segment, whose first record is the publication
// right after the checkpoint's epoch. The session ships the checkpoint
// file first and then tails the segments on disk: Wait hands out the
// records in log order, each once the maintainer has published its epoch
// — one record per publication, each carrying its epoch — so a follower
// trails the leader and never holds a state the leader does not serve.
// The append path does no per-follower work, and the leader holds no
// follower's backlog in memory. The leader does not judge the epochs it
// ships; the follower checks that each record is the publication right
// after its epoch.
//
// An idle session hands out a heartbeat: an empty batch record at the
// epoch of the last record shipped, which publishes nothing — so a quiet
// leader still hands a fresh follower its epoch and a dead connection
// trips the follower's read deadline.
//
// Slow-follower policy: a session keeps reading the segment it is in
// through its open file after a checkpoint deletes it, but a segment
// deleted before the session reached it means the follower is a whole
// checkpoint behind: Wait returns ErrSlowFollower and the follower
// re-bootstraps with a fresh CORE.SYNC. The leader never waits for a
// follower.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"repro/graph"
)

// syncReadBytes is about the most one Wait hands out: it stops reading
// at the first record boundary past it.
const syncReadBytes = 256 << 10

var (
	// ErrSlowFollower reports that a sync session fell a whole checkpoint
	// behind: the next segment it needed was already deleted. The follower
	// must re-bootstrap with a new sync.
	ErrSlowFollower = errors.New("persist: follower fell behind, sync dropped")
	// ErrSyncClosed reports that the manager shut down, persistence
	// failed, or the session was canceled or closed while it was live.
	ErrSyncClosed = errors.New("persist: sync session closed")
)

// SyncSession is one follower's live replication feed, returned by
// Manager.StartSync: the checkpoint the sync took plus a cursor into the
// log after it. The caller streams Checkpoint first, then loops on Wait,
// and must Close the session when the connection ends; Close must not
// race a Wait.
type SyncSession struct {
	// Checkpoint is the committed checkpoint file of the generation the
	// sync began, open at its start, and Size is its length
	// (ReadCheckpoint decodes it). Its header carries that generation and
	// the checkpoint epoch: the follower reloads at it, and the first
	// record Wait hands out is the publication right after it. The open
	// file stays readable after a later checkpoint deletes it.
	Checkpoint *os.File
	Size       int64

	p *Manager

	// The cursor: the segment of generation gen, read up to off, a record
	// boundary; next is the epoch after the last record shipped.
	seg  *os.File
	gen  uint64
	off  int64
	next uint64

	br  *bufio.Reader // over seg from off, refilled by each read
	sr  StreamReader  // over br, teeing every byte it consumes into out
	out bytes.Buffer  // what Wait returns, valid until its next call

	stop      chan struct{} // Wait's one cancel, closed by StartSync's watcher
	done      chan struct{} // closed by Close
	closeOnce sync.Once
}

// StartSync takes a checkpoint for a follower and returns the session
// that ships it and then the log after it. Like any checkpoint it
// rotates the log and counts in Stats. cancel (nil: never) ends the
// session's Wait as the manager's Close and the session's own Close do.
// The manager must be started and healthy.
func (p *Manager) StartSync(cancel <-chan struct{}) (*SyncSession, error) {
	if !p.started.Load() {
		return nil, errors.New("persist: not started")
	}
	s, err := p.checkpoint(true)
	if err != nil {
		return nil, err
	}
	// The watcher merges the session's three ends — cancel, the manager's
	// Close and the session's — into stop, the one channel Wait parks on.
	go func() {
		select {
		case <-cancel:
		case <-p.quit:
		case <-s.done:
		}
		close(s.stop)
	}()
	return s, nil
}

// openSession opens generation gen's checkpoint, size bytes at epoch,
// and its segment for a sync session. The caller holds ckptMu and has
// just committed the checkpoint, so no later checkpoint has deleted
// either file.
func (p *Manager) openSession(gen, epoch uint64, size int64) (*SyncSession, error) {
	ckpt, err := os.Open(checkpointPath(p.dir, gen))
	if err != nil {
		return nil, err
	}
	seg, err := openSegment(p.dir, gen)
	if err != nil {
		ckpt.Close()
		return nil, err
	}
	s := &SyncSession{
		Checkpoint: ckpt,
		Size:       size,
		p:          p,
		seg:        seg,
		gen:        gen,
		off:        aofHeaderSize,
		next:       epoch + 1,
		br:         bufio.NewReaderSize(nil, 64<<10),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	s.sr.r = io.TeeReader(s.br, &s.out)
	p.syncsStarted.Add(1)
	p.syncsLive.Add(1)
	return s, nil
}

// Wait returns the next records of the log whose epochs have published
// (a concatenation of framed records, about syncReadBytes at most, valid
// until the next Wait call), blocking until there is one. After timeout
// with none (0: no timeout) it returns a heartbeat: an empty batch record
// at the epoch of the last record shipped. Errors are terminal:
// ErrSlowFollower (a whole checkpoint behind; re-sync), ErrSyncClosed
// (canceled, closed, the manager gone or persistence failed), or a
// corrupt log.
func (s *SyncSession) Wait(timeout time.Duration) ([]byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		select {
		case <-s.stop:
			return nil, ErrSyncClosed
		default:
		}
		if s.p.Err() != nil {
			return nil, ErrSyncClosed
		}
		pub := s.p.m.Epoch()
		end, err := s.read(pub)
		if err != nil {
			return nil, err
		}
		if s.out.Len() > 0 {
			return s.out.Bytes(), nil
		}
		if end && pub >= s.next {
			// The segment ended with a published record still owed: a
			// checkpoint rotated the log, and the record is in the next
			// generation's segment.
			if err := s.nextSegment(); err != nil {
				return nil, err
			}
			continue
		}
		var left time.Duration
		if timeout > 0 {
			if left = time.Until(deadline); left <= 0 {
				return appendBatchRecord(s.out.Bytes(), s.next-1, nil, nil), nil
			}
		}
		// Park until the owed record publishes or, when the read stopped
		// at a later unpublished record past a gap in the log, the next.
		s.p.m.WaitEpoch(max(s.next, pub+1), left, s.stop)
	}
}

// read refills out with the records from the cursor on whose epochs are
// at most pub, and moves the cursor past them. It reports whether it
// stopped at the segment's end. A record that does not read whole is
// still being written when pub is below next; past next it is corrupt,
// since a record is written before its epoch publishes.
func (s *SyncSession) read(pub uint64) (end bool, err error) {
	s.out.Reset()
	if _, err := s.seg.Seek(s.off, io.SeekStart); err != nil {
		return false, err
	}
	s.br.Reset(s.seg)
	for s.out.Len() < syncReadBytes {
		mark := s.out.Len()
		p, err := s.sr.frame()
		if err == io.EOF {
			end = true
			break
		}
		var rec StreamRecord
		if err == nil {
			rec, err = s.sr.decode(p)
		} else if pub < s.next {
			s.out.Truncate(mark)
			break
		}
		if err != nil {
			return false, fmt.Errorf("persist: sync: %s at offset %d: %w",
				segmentPath(s.p.dir, s.gen), s.off+int64(mark), err)
		}
		if rec.Epoch > pub {
			s.out.Truncate(mark)
			break
		}
		s.next = rec.Epoch + 1
	}
	s.off += int64(s.out.Len())
	return end, nil
}

// nextSegment moves the cursor to the start of the next generation's
// segment. One already deleted was superseded by a later checkpoint:
// the session is a whole checkpoint behind.
func (s *SyncSession) nextSegment() error {
	f, err := openSegment(s.p.dir, s.gen+1)
	if errors.Is(err, fs.ErrNotExist) {
		s.p.syncDropped.Add(1)
		return ErrSlowFollower
	}
	if err != nil {
		return err
	}
	s.seg.Close()
	s.seg, s.gen, s.off = f, s.gen+1, aofHeaderSize
	return nil
}

// Close ends the session, returning once its watcher has exited, and
// closes its files. Idempotent.
func (s *SyncSession) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		<-s.stop
		s.Checkpoint.Close()
		s.seg.Close()
		s.p.syncsLive.Add(-1)
	})
}

// --- record decoding --------------------------------------------------------

// StreamRecord is one decoded record: one leader publication, at Epoch,
// an edge batch (an explicit growth to n is the batch inserting the
// self-loop (n−1, n−1)). Removes and Inserts alias an internal buffer
// valid until the next Next call. A batch with neither is an idle
// session's heartbeat, which publishes nothing.
type StreamRecord struct {
	Epoch   uint64
	Removes []graph.Edge // applied first
	Inserts []graph.Edge
}

// StreamReader decodes framed records: a follower's sync connection, and
// crash recovery's AOF segments. Each record passes two steps: frame (the
// length and the CRC) and decode (the payload's shape and bounds).
// Next fails on either — on a live TCP stream, corruption means the
// connection is garbage and the follower must re-sync — while recovery
// calls the steps apart, because a frame error there is a crash's torn
// tail.
type StreamReader struct {
	r       io.Reader
	lr      io.LimitedReader // frame's view of r, one payload long
	payload bytes.Buffer
	edges   []graph.Edge
}

// NewStreamReader wraps r (typically a bufio.Reader over the sync
// connection).
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// Next reads, verifies, and decodes one record. Transport errors (EOF,
// read deadlines) propagate unwrapped.
func (sr *StreamReader) Next() (StreamRecord, error) {
	p, err := sr.frame()
	if err != nil {
		return StreamRecord{}, err
	}
	return sr.decode(p)
}

// frame reads one record and verifies its frame: the payload the length
// prefix announces, then the CRC. The buffer grows only as payload bytes
// arrive, so a corrupt length costs what the stream holds, not what the
// prefix claims. The payload it returns is valid until the next call.
func (sr *StreamReader) frame() ([]byte, error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return nil, err
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if payloadLen == 0 {
		return nil, errors.New("persist: empty record")
	}
	sr.payload.Reset()
	sr.lr = io.LimitedReader{R: sr.r, N: int64(payloadLen)}
	if _, err := sr.payload.ReadFrom(&sr.lr); err != nil {
		return nil, err
	}
	p := sr.payload.Bytes()
	if len(p) < int(payloadLen) {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(p, crcTable) != wantCRC {
		return nil, errors.New("persist: record CRC mismatch")
	}
	return p, nil
}

// decode parses one framed payload. The CRC vouches for the bytes only,
// so the bounds are still checked: a record from a mismatched history
// must not panic the consumer.
func (sr *StreamReader) decode(p []byte) (StreamRecord, error) {
	if len(p) < batchHeaderSize {
		return StreamRecord{}, fmt.Errorf("persist: record too short (%d bytes)", len(p))
	}
	epoch := binary.LittleEndian.Uint64(p)
	nr := binary.LittleEndian.Uint32(p[8:])
	ni := binary.LittleEndian.Uint32(p[12:])
	if uint64(len(p)) != batchHeaderSize+8*(uint64(nr)+uint64(ni)) {
		return StreamRecord{}, fmt.Errorf("persist: record length %d != %d removals + %d insertions", len(p), nr, ni)
	}
	sr.edges = sr.edges[:0]
	for o := batchHeaderSize; o < len(p); o += 8 {
		u := int32(binary.LittleEndian.Uint32(p[o:]))
		v := int32(binary.LittleEndian.Uint32(p[o+4:]))
		if u < 0 || v < 0 {
			return StreamRecord{}, fmt.Errorf("persist: negative vertex id (%d,%d)", u, v)
		}
		sr.edges = append(sr.edges, graph.Edge{U: u, V: v})
	}
	return StreamRecord{Epoch: epoch, Removes: sr.edges[:nr:nr], Inserts: sr.edges[nr:]}, nil
}

// applyToGraph applies one decoded record to g at graph level: a batch's
// removals, then its insertions. Logged ops are post-prepareBatch: insert
// endpoints were in range when logged, so grow-to-fit reproduces the
// growth the engine performed — implicit, or AddVertices' self-loop —
// which is why growth needs no record of its own.
func applyToGraph(g *graph.Graph, rec StreamRecord) {
	for _, e := range rec.Removes {
		if int(e.U) < g.N() && int(e.V) < g.N() {
			g.RemoveEdge(e.U, e.V)
		}
	}
	for _, e := range rec.Inserts {
		if hi := max(e.U, e.V); int(hi) >= g.N() {
			g.Grow(int(hi) + 1)
		}
		g.AddEdge(e.U, e.V)
	}
}
