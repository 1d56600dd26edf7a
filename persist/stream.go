package persist

// Replication streaming: the Manager fans the same CRC-framed records it
// appends to the AOF out to any number of follower taps, each fed after
// the record is written — by the append itself, or under FsyncAlways by
// the syncer once the record is synced — so leader disk and every
// follower see one canonical stream, one record per publication, each
// carrying its epoch. A
// SyncSession is a checkpoint: StartSync takes one, registering the tap
// at its barrier, so the tap's records are exactly the publications after
// it. The session ships the committed checkpoint file first and then
// drains the tap. A follower that has applied every record up to epoch E
// serves reads at least as fresh as the leader's epoch E (CORE.WAIT).
//
// An idle session hands out a heartbeat: an empty batch record at the
// tap's last epoch, which publishes nothing — so a quiet leader still
// hands a fresh follower its epoch and a dead connection trips the
// follower's read deadline.
//
// Slow-follower policy: each tap buffers at most SyncBufferBytes of
// not-yet-drained records; on overflow the tap is dropped (the session's
// Wait returns ErrSlowFollower) and the follower re-bootstraps with a
// fresh CORE.SYNC — the leader never blocks on a follower.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/graph"
)

// defaultSyncBufferBytes bounds one follower tap's backlog (8 MiB ≈ one
// million buffered edge ops) before the slow-follower policy drops it.
const defaultSyncBufferBytes = 8 << 20

var (
	// ErrSlowFollower reports that a follower tap overflowed its buffer
	// and was dropped; the follower must re-bootstrap with a new sync.
	ErrSlowFollower = errors.New("persist: follower fell behind, sync dropped")
	// ErrSyncClosed reports that the manager shut down or persistence
	// failed while a sync session was live.
	ErrSyncClosed = errors.New("persist: sync session closed")
)

// --- tap --------------------------------------------------------------------

// tap is one follower's buffered view of the op stream. The append path
// (the maintainer's applier goroutine, or the FsyncAlways syncer, under
// Manager.mu) enqueues; the
// follower's streamer goroutine drains via take-style swaps in
// SyncSession.Wait. A tap never blocks the appender: when the streamer
// cannot keep up the tap overflows and dies.
type tap struct {
	id        int64 // stable follower label for metrics
	mu        sync.Mutex
	buf       []byte
	spare     []byte        // drained buffer handed back for reuse
	notify    chan struct{} // capacity 1: "buf went non-empty / tap died"
	lastEpoch uint64        // epoch of the newest enqueued record
	max       int
	overflow  bool
	closed    bool
}

func newTap(max int, epoch uint64) *tap {
	return &tap{notify: make(chan struct{}, 1), max: max, lastEpoch: epoch}
}

// enqueue appends one framed record, the publication at epoch. alive
// reports whether the tap is still streamable afterwards; droppedNow is
// true exactly once, on the call that overflowed it.
func (t *tap) enqueue(rec []byte, epoch uint64) (alive, droppedNow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.overflow {
		return false, false
	}
	if len(t.buf)+len(rec) > t.max {
		t.overflow = true
		t.buf = nil
		t.wakeLocked()
		return false, true
	}
	t.buf = append(t.buf, rec...)
	t.lastEpoch = epoch
	t.wakeLocked()
	return true, false
}

func (t *tap) wakeLocked() {
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// kill closes the tap (manager shutdown, persistence failure, or session
// Close); any parked Wait wakes with ErrSyncClosed.
func (t *tap) kill() {
	t.mu.Lock()
	t.closed = true
	t.buf = nil
	t.spare = nil
	t.wakeLocked()
	t.mu.Unlock()
}

// --- sync session -----------------------------------------------------------

// SyncSession is one follower's live replication feed, returned by
// Manager.StartSync: the checkpoint the sync took plus the tap carrying
// every op after it. The caller streams Checkpoint first, then loops on
// Wait, and must Close the session when the connection ends.
type SyncSession struct {
	// Checkpoint is the committed checkpoint file of the generation the
	// sync began, open at its start, and Size is its length
	// (ReadCheckpoint decodes it). Its header carries that generation and
	// the checkpoint epoch: the follower's watermark starts there, and the
	// tap's first record is the publication right after it. The open file
	// stays readable after a later checkpoint deletes it.
	Checkpoint *os.File
	Size       int64

	t    *tap
	p    *Manager
	idle []byte // the heartbeat Wait returns when idle
}

// Wait blocks until buffered records are available and returns them (a
// concatenation of framed records, valid until the next Wait call). After
// timeout with nothing buffered it returns a heartbeat: an empty batch
// record at the epoch captured while the buffer was observed empty, so
// every record up to it has already been handed out. Errors are terminal:
// ErrSlowFollower (tap overflowed; re-sync) or ErrSyncClosed (manager
// gone, or cancel fired).
func (s *SyncSession) Wait(timeout time.Duration, cancel <-chan struct{}) ([]byte, error) {
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	t := s.t
	for {
		t.mu.Lock()
		if t.overflow {
			t.mu.Unlock()
			return nil, ErrSlowFollower
		}
		if t.closed {
			t.mu.Unlock()
			return nil, ErrSyncClosed
		}
		if len(t.buf) > 0 {
			data := t.buf
			t.buf = t.spare[:0]
			t.spare = data
			t.mu.Unlock()
			return data, nil
		}
		idleEpoch := t.lastEpoch
		t.mu.Unlock()
		select {
		case <-t.notify:
		case <-deadline:
			s.idle = appendBatchRecord(s.idle[:0], idleEpoch, nil, nil)
			return s.idle, nil
		case <-cancel:
			return nil, ErrSyncClosed
		}
	}
}

// Close detaches the tap from the manager's fan-out and closes the
// checkpoint file. Idempotent.
func (s *SyncSession) Close() {
	s.t.kill()
	s.p.removeTap(s.t)
	s.Checkpoint.Close()
}

// StartSync takes a checkpoint for a follower: its barrier also
// registers the follower's tap, so the tap's op stream continues exactly
// where the checkpoint ends, and the session holds the committed file.
// Like any checkpoint it rotates the log and counts in Stats. The manager
// must be started and healthy.
func (p *Manager) StartSync() (*SyncSession, error) {
	if !p.started.Load() {
		return nil, errors.New("persist: not started")
	}
	return p.checkpoint(true)
}

// removeTap drops t from the fan-out list.
func (p *Manager) removeTap(t *tap) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.taps {
		if x == t {
			p.taps = append(p.taps[:i], p.taps[i+1:]...)
			return
		}
	}
}

// fanLocked hands the framed record in rec, the publication at epoch, to
// every live tap and compacts dead ones out of the list. Caller holds p.mu.
func (p *Manager) fanLocked(rec []byte, epoch uint64) {
	if len(p.taps) == 0 {
		return
	}
	live := p.taps[:0]
	for _, t := range p.taps {
		alive, droppedNow := t.enqueue(rec, epoch)
		if alive {
			live = append(live, t)
			continue
		}
		if droppedNow {
			p.syncDropped.Add(1)
		}
	}
	for i := len(live); i < len(p.taps); i++ {
		p.taps[i] = nil
	}
	p.taps = live
}

// killTapsLocked closes every tap (shutdown / sticky failure); followers
// notice and re-sync elsewhere. Caller holds p.mu.
func (p *Manager) killTapsLocked() {
	for i, t := range p.taps {
		t.kill()
		p.taps[i] = nil
	}
	p.taps = p.taps[:0]
}

// --- record decoding --------------------------------------------------------

// StreamOp is the kind of one decoded record.
type StreamOp byte

const (
	OpBatch StreamOp = iota
	OpGrow
)

// StreamRecord is one decoded record: one leader publication, at Epoch.
// Removes and Inserts alias an internal buffer valid until the next Next
// call. A batch with neither is an idle session's heartbeat, which
// publishes nothing.
type StreamRecord struct {
	Op      StreamOp
	Epoch   uint64
	Removes []graph.Edge // OpBatch: applied first
	Inserts []graph.Edge // OpBatch
	N       int          // OpGrow: absolute target vertex count
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
	if len(p) < recPayloadStart {
		return StreamRecord{}, fmt.Errorf("persist: record too short (%d bytes)", len(p))
	}
	epoch := binary.LittleEndian.Uint64(p[1:])
	switch kind := p[0]; kind {
	case recBatch:
		if len(p) < batchHeaderSize {
			return StreamRecord{}, fmt.Errorf("persist: batch record too short (%d bytes)", len(p))
		}
		nr := binary.LittleEndian.Uint32(p[recPayloadStart:])
		ni := binary.LittleEndian.Uint32(p[recPayloadStart+4:])
		if uint64(len(p)) != batchHeaderSize+8*(uint64(nr)+uint64(ni)) {
			return StreamRecord{}, fmt.Errorf("persist: batch record length %d != %d removals + %d insertions", len(p), nr, ni)
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
		return StreamRecord{Op: OpBatch, Epoch: epoch, Removes: sr.edges[:nr:nr], Inserts: sr.edges[nr:]}, nil
	case recGrow:
		if len(p) != growPayloadSize {
			return StreamRecord{}, fmt.Errorf("persist: grow record length %d", len(p))
		}
		n := binary.LittleEndian.Uint64(p[recPayloadStart:])
		if n > math.MaxInt32 {
			return StreamRecord{}, fmt.Errorf("persist: grow to implausible n=%d", n)
		}
		return StreamRecord{Op: OpGrow, Epoch: epoch, N: int(n)}, nil
	default:
		return StreamRecord{}, fmt.Errorf("persist: unknown record kind %d", kind)
	}
}

// applyToGraph applies one decoded record to g at graph level: a batch's
// removals, then its insertions, or a growth. Logged ops are
// post-prepareBatch: insert endpoints were in range when logged, so
// grow-to-fit reproduces the implicit growth the engine performed (which
// is why implicit grows need no records of their own).
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
	if rec.Op == OpGrow {
		g.Grow(rec.N)
	}
}
