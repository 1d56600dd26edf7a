package server

import (
	"errors"
	"io"
	"net"
	"time"

	"repro/graph"
	"repro/kcore"
	"repro/resp"
)

// conn is one client connection, served by one goroutine: the query
// buffer its socket reads land in, the resumable zero-copy parser over
// that buffer, the reply writer, the write slots (each CORE.INSERT/REMOVE's
// future and edge buffer, recycled across bursts), and the scratch that
// keeps the steady-state command path allocation-free — the command's
// argument slice headers (resp.Command), the CORE.MGET id buffer and the
// error-message buffer.
//
// The dispatch loop preserves RESP's per-connection semantics — replies
// in command order, reads observe earlier writes — while letting a
// pipelined write burst coalesce: CORE.INSERT/CORE.REMOVE are submitted
// asynchronously (kcore.Pending) and their replies deferred; the queue
// is drained (waiting each future, writing each reply, in order) the
// moment a non-write command needs to run, the bytes of one socket read
// are used up, or the queue hits the defaultMaxPipeline bound. Because
// one goroutine submits in command order and the maintainer's coalescer
// folds with last-op-per-edge-wins in enqueue order, the drain-later
// scheme is observationally identical to executing the commands one at a
// time — just in ~one engine round instead of one per command.
//
// Snapshot reads go through the connection's kcore.Reader: the first one
// of a burst pins the latest snapshot, and the reads after it share that
// pin until the connection could wait — before it waits on a write
// future (drainPending), before any command outside the read and
// aggregate families runs (CORE.WAIT and CORE.SYNC park), and before the
// burst's replies are flushed to a peer that may be slow (endCycle). A
// connection therefore never pins a snapshot while it waits, and the
// publisher recycles the pages no pinned connection can reach.
type conn struct {
	srv *Server
	nc  net.Conn
	wr  *resp.Writer

	// in holds the query bytes not yet consumed: whole commands are parsed
	// out of it in place (a handler's args alias it, valid until it
	// returns), and a trailing partial frame is kept for par to resume.
	in  []byte
	par resp.Parser

	cmd resp.Command
	// pending[:len] are the write slots whose replies are owed, in command
	// order; pending[len:cap] are the free ones, their futures waited.
	pending []owed
	cycle   int64 // commands since the last reply flush (pipelining depth)

	// Burst-grained instrumentation scratch (see serverMetrics): one
	// clock read when a burst starts, per-family command counts flushed
	// to the shared counters when it ends, and the nanoseconds already
	// attributed to individually timed commands and write drains within
	// the burst — subtracted so the read-family burst mean covers only
	// untimed dispatch work.
	burstStart time.Time
	famN       [numFamilies]uint32
	timedNs    int64

	ids    []int32
	hist   []int64 // range-histogram bins (CORE.HIST lo hi)
	errBuf []byte

	rd *kcore.Reader // made on the first snapshot read
}

// owed is one write slot: a pipelined write's future and the edge buffer
// lent to the pipeline with it. The coalescer reads the buffer until the
// batch applies, so a slot is free again only once drainPending has
// waited its future.
type owed struct {
	pd    *kcore.Pending
	edges []graph.Edge
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv: s,
		nc:  nc,
		wr:  resp.NewWriterSize(nc, 16<<10),
	}
}

const (
	// readChunk is how much socket data one read may pull in.
	readChunk = 16 << 10
	// inShrinkCap bounds the query buffer kept on an idle connection.
	inShrinkCap = 64 << 10
)

// serve is the connection loop: a blocking read (parked on the runtime's
// netpoller) appends to the query buffer, every complete command in it is
// dispatched, and the replies leave in one flush per read — also when the
// read ends mid-frame, so a complete command never waits on the rest of
// its neighbour. A peer that stops reading its replies blocks the flush,
// and with it this connection's reads: back-pressure needs no buffer.
func (c *conn) serve() {
	defer c.nc.Close()
	defer c.unpin() // a Reader dropped pinned would keep its slot
	for {
		c.ensureInSpace()
		n, err := c.nc.Read(c.in[len(c.in):cap(c.in)])
		if n > 0 {
			c.in = c.in[:len(c.in)+n]
			if closed := c.parseAndDispatch(); closed {
				return
			}
			if c.cycle > 0 { // a read that completed no command settles nothing
				c.endCycle()
				if err := c.wr.Flush(); err != nil {
					return
				}
			}
		}
		if err != nil {
			c.readFailed(err)
			return
		}
	}
}

// snapshot returns the snapshot this burst's reads share, pinning the
// latest one on the burst's first read.
func (c *conn) snapshot() kcore.Snapshot {
	if c.rd == nil {
		c.rd = c.srv.m.NewReader()
	}
	return c.rd.Pin()
}

// unpin releases the burst's pinned snapshot, if any; the next read pins
// a fresh one.
func (c *conn) unpin() {
	if c.rd != nil {
		c.rd.Unpin()
	}
}

// parseAndDispatch runs every complete command in the query buffer and
// moves the partial frame behind them, if any, to its front. It reports
// whether the connection is finished (QUIT, or a protocol error — both
// already answered and flushed).
func (c *conn) parseAndDispatch() (closed bool) {
	off := 0
	for {
		n, err := c.par.Parse(c.in[off:], &c.cmd)
		off += n
		if err == resp.ErrIncomplete {
			break
		}
		if err != nil {
			c.readFailed(err)
			return true
		}
		if quit := c.handle(c.cmd.Args); quit {
			c.endCycle()
			c.wr.Flush()
			return true
		}
	}
	if off > 0 {
		c.in = append(c.in[:0], c.in[off:]...)
	}
	if len(c.in) == 0 && cap(c.in) > inShrinkCap {
		c.in = nil
	}
	return false
}

// ensureInSpace keeps at least 4 KB free behind the unconsumed bytes,
// doubling the buffer for a frame larger than it.
func (c *conn) ensureInSpace() {
	if cap(c.in)-len(c.in) >= 4<<10 {
		return
	}
	newCap := 2 * cap(c.in)
	if newCap < len(c.in)+readChunk {
		newCap = len(c.in) + readChunk
	}
	nb := make([]byte, len(c.in), newCap)
	copy(nb, c.in)
	c.in = nb
}

// handle runs one decoded command.
func (c *conn) handle(args [][]byte) (quit bool) {
	if c.cycle++; c.cycle == 1 {
		// One clock read per pipelined burst — the whole cost the
		// zero-allocation read path pays for latency observation.
		c.burstStart = time.Now()
		c.timedNs = 0
	}
	if quit := c.dispatch(args); quit {
		return true
	}
	if len(c.pending) >= defaultMaxPipeline {
		c.drainPending()
	}
	return false
}

// endCycle settles deferred write replies and records the observed
// pipelining depth; called when a pipelined burst ends. Family counts
// and the read-latency burst mean flush first, so the final write drain
// is not charged to the reads.
func (c *conn) endCycle() {
	c.unpin()
	c.flushObs()
	c.drainPending()
	c.srv.metrics.pipeDepth.Observe(c.cycle)
	c.cycle = 0
}

// flushObs flushes the burst's per-family command counts to the shared
// counters and records the read-family latency as the burst mean: the
// burst's untimed wall time (individually timed commands and write
// drains already subtracted via timedNs) divided by its command count,
// observed once per read command (ObserveN). Everything here is atomic
// adds — no allocation, no locks.
func (c *conn) flushObs() {
	m := c.srv.metrics
	nRead := int64(c.famN[famRead])
	var total int64
	for f := range c.famN {
		if n := int64(c.famN[f]); n != 0 {
			m.famCount[f].Add(n)
			total += n
		}
	}
	c.famN = [numFamilies]uint32{}
	if nRead > 0 && !c.burstStart.IsZero() {
		per := (time.Since(c.burstStart).Nanoseconds() - c.timedNs) / total
		if per < 0 {
			per = 0 // clock skew vs timed sections; clamp
		}
		m.famLat[famRead].ObserveN(per, nRead)
	}
	c.burstStart = time.Time{}
}

// readFailed finishes the connection after a failed read: owed replies
// are still settled and flushed, a protocol error gets an error reply,
// and a clean shutdown (EOF, or the Shutdown nudge) stays quiet.
func (c *conn) readFailed(err error) {
	c.unpin()
	c.flushObs()
	c.drainPending()
	var pe *resp.ProtocolError
	switch {
	case errors.As(err, &pe):
		c.srv.metrics.protoErrors.Inc()
		c.writeError("ERR protocol error: " + pe.Error())
	case errors.Is(err, io.EOF):
		// Clean close between frames.
	case isTimeout(err) && c.srv.closing.Load():
		// The Shutdown nudge: in-flight futures drained above, buffered
		// replies about to flush — the graceful path.
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed):
		// Peer vanished mid-frame or Close won the race; nothing to say.
	default:
		c.srv.logf("server: read from %v: %v", c.nc.RemoteAddr(), err)
	}
	c.wr.Flush()
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch routes one command. It reports whether the connection should
// close (QUIT).
func (c *conn) dispatch(args [][]byte) (quit bool) {
	name := asciiUpper(args[0])
	cmd, ok := commands[string(name)] // no-alloc map lookup on []byte key
	if !ok {
		c.famN[famAdmin]++
		c.writeErrArg("unknown command", args[0])
		return false
	}
	if cmd.family != famRead && cmd.family != famAggregate {
		c.unpin() // it may wait, and it reads no snapshot
	}
	if cmd.blocking {
		// It may park for good: count it now, not at the end of a burst
		// that only it can end.
		c.srv.metrics.famCount[cmd.family].Inc()
	} else {
		c.famN[cmd.family]++ // flushed to the shared counters at burst end
	}
	if len(args) < cmd.minArgs || (cmd.maxArgs >= 0 && len(args) > cmd.maxArgs) {
		c.writeErrParts("wrong number of arguments for '", []byte(cmd.name), "'")
		return false
	}
	if cmd.denyOnReplica && c.srv.replica != nil {
		c.writeError("READONLY replica: write commands must go to the leader")
		return false
	}
	if cmd.family != famWrite {
		// Per-connection read-your-writes: a non-write command must
		// observe every write this connection pipelined before it.
		c.drainPending()
	}
	if !cmd.timed {
		return cmd.fn(c, args)
	}
	// Aggregate and admin commands are rare and heavy enough to time
	// individually (and are the slowlog's primary inhabitants); their
	// wall time is subtracted from the burst mean via timedNs.
	m := c.srv.metrics
	t0 := time.Now()
	quit = cmd.fn(c, args)
	el := time.Since(t0)
	c.timedNs += el.Nanoseconds()
	m.famLat[cmd.family].Observe(el.Nanoseconds())
	if !cmd.noSlowlog && m.slow.Eligible(el) {
		m.slow.Add(cmd.name, "", el)
	}
	return quit
}

// drainPending waits each owed write future in submission order and
// writes its reply: the applied-edge count of the coalesced engine batch
// that covered the command (shared across coalesced ops, exactly like
// the in-process BatchResult contract). Its slots go back to the free
// list here — only after Wait proves the batch applied — minus any slot
// past maxWriteSlots and any edge buffer past maxEdgeScratch.
func (c *conn) drainPending() {
	k := len(c.pending)
	if k == 0 {
		return
	}
	// No pin across the wait, and the next read must observe these writes.
	c.unpin()
	t0 := time.Now()
	for i := range c.pending {
		w := &c.pending[i]
		c.wr.WriteInt(int64(w.pd.Wait().Applied))
		if cap(w.edges) > maxEdgeScratch {
			w.edges = nil
		}
	}
	keep := min(cap(c.pending), maxWriteSlots)
	clear(c.pending[keep:cap(c.pending)])
	c.pending = c.pending[:0:keep]
	// Every write in the drain waited ≈ the whole drain (futures of one
	// burst settle on the same coalesced batches), so the drain's wall
	// time is each write's observed latency: one weighted observation
	// instead of k clock reads.
	m := c.srv.metrics
	el := time.Since(t0)
	ns := el.Nanoseconds()
	m.famLat[famWrite].ObserveN(ns, int64(k))
	m.inflightWrites.Add(-int64(k))
	c.timedNs += ns
	if m.slow.Eligible(el) {
		m.slow.Add("CORE.INSERT|REMOVE", "pipelined write drain", el)
	}
}

const (
	// maxEdgeScratch bounds how large a recycled edge buffer may stay; a
	// monster CORE.INSERT should not pin its buffer on an idle conn.
	maxEdgeScratch = 4096
	// maxWriteSlots bounds the write slots kept between bursts: 16- and
	// 32-deep write flights reuse all of theirs, a 512-deep one does not
	// pin 512 futures and buffers on an idle conn.
	maxWriteSlots = 32
)

// writeError emits an error reply. Every owed write future settles
// first: replies must leave in command order, and an immediate error
// path (unknown command, bad arity, malformed argument) would otherwise
// jump ahead of the deferred integer replies of a pipelined write burst
// and misattribute every reply after it.
func (c *conn) writeError(msg string) {
	c.drainPending()
	c.srv.metrics.errorsSent.Inc()
	c.wr.WriteError(msg)
}

// writeErrArg emits "ERR <what> '<arg>'" with the untrusted argument
// clipped and sanitized, building the message in the connection's error
// scratch — no string concatenation, no per-error allocations.
func (c *conn) writeErrArg(what string, arg []byte) {
	b := append(c.errBuf[:0], "ERR "...)
	b = append(b, what...)
	b = append(b, " '"...)
	b = appendClipped(b, arg)
	b = append(b, '\'')
	c.errBuf = b
	c.writeErrBytes(b)
}

// writeErrParts emits "ERR <s1><b><s2>" the same way, for error shapes
// whose dynamic part needs no clipping (command names from the table).
func (c *conn) writeErrParts(s1 string, mid []byte, s2 string) {
	b := append(c.errBuf[:0], "ERR "...)
	b = append(b, s1...)
	b = append(b, mid...)
	b = append(b, s2...)
	c.errBuf = b
	c.writeErrBytes(b)
}

func (c *conn) writeErrBytes(msg []byte) {
	c.drainPending()
	c.srv.metrics.errorsSent.Inc()
	c.wr.WriteErrorBytes(msg)
}

// asciiUpper upper-cases b in place (command names are ASCII) and
// returns it. The bytes live in the connection's query buffer, already
// consumed past by the parser, so mutating them is safe.
func asciiUpper(b []byte) []byte {
	for i, ch := range b {
		if 'a' <= ch && ch <= 'z' {
			b[i] = ch - 'a' + 'A'
		}
	}
	return b
}
