package server

import (
	"fmt"
	"io"
	"time"
)

// syncWriteTimeout bounds each chunk the leader writes to a follower. A
// follower that stops reading stalls the write once its socket buffer
// fills; past this deadline the leader abandons the session (the
// follower re-syncs from scratch when it comes back). A var so tests can
// lower it.
var syncWriteTimeout = 10 * time.Second

// syncChunk is the most the leader writes to a follower under one
// deadline.
const syncChunk = 256 << 10

// cmdSync serves CORE.SYNC, the replication bootstrap + stream:
//
//	+FULLSYNC <len>\r\n
//	<len raw bytes: the checkpoint file the sync took — header (magic,
//	 version, gen, epoch), graph binary, CRC-32C tail;
//	 persist.ReadCheckpoint decodes it>
//	<endless CRC-framed records: one batch per publication, each with its epoch>
//
// The generation and the checkpoint epoch travel only in the checkpoint
// header. A sync is a checkpoint, and the session reads the log from
// that checkpoint's generation on, so the record stream starts exactly
// where the checkpoint ends — no gap, no overlap — and carries only
// published epochs. The stream is what the session's Wait returns,
// written as is: the records, or after a second's silence a heartbeat,
// an empty batch record at the last epoch shipped. After the handshake
// the connection belongs to the stream until the follower disconnects
// or stalls a write past syncWriteTimeout, the follower falls a whole
// checkpoint behind, or the server shuts down; it never returns to
// command dispatch.
func cmdSync(c *conn, args [][]byte) bool {
	p := c.srv.persist
	if p == nil {
		c.writeError("ERR replication requires persistence (start kcored with -dir)")
		return false
	}
	sess, err := p.StartSync(c.srv.closeCh)
	if err != nil {
		c.writeError("ERR " + err.Error())
		return false
	}
	defer sess.Close()

	c.wr.WriteSimple(fmt.Sprintf("FULLSYNC %d", sess.Size))
	if err := c.wr.Flush(); err != nil {
		return true
	}
	// The checkpoint bypasses the RESP writer: it is raw bytes, not a
	// frame, and may be large. Copied from the file, each chunk goes out
	// by sendfile, under a fresh deadline as in writeSync.
	for left := sess.Size; left > 0; {
		c.nc.SetWriteDeadline(time.Now().Add(syncWriteTimeout))
		n, err := io.CopyN(c.nc, sess.Checkpoint, min(left, syncChunk))
		if err != nil {
			return true
		}
		left -= n
	}
	for {
		// A whole checkpoint behind, shutdown or a failed write: drop the
		// connection; the follower notices and re-bootstraps.
		data, err := sess.Wait(time.Second)
		if err != nil || c.writeSync(data) != nil {
			return true
		}
	}
}

// writeSync writes b to the follower in chunks of at most syncChunk,
// each under a fresh syncWriteTimeout: the deadline bounds a stall, not
// the transfer, so a slow but live follower still receives a large
// backlog.
func (c *conn) writeSync(b []byte) error {
	for len(b) > 0 {
		n := min(len(b), syncChunk)
		c.nc.SetWriteDeadline(time.Now().Add(syncWriteTimeout))
		if _, err := c.nc.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// cmdWait serves CORE.WAIT epoch [timeout-ms]: block until the
// maintainer's published epoch reaches the target, then reply with the
// epoch actually reached. The connection parks on the epoch, woken when
// it moves (Maintainer.WaitEpoch). A follower publishes at the leader's
// epochs, so this is the read-your-writes primitive across nodes: a
// client that captured the leader's epoch after an acked write WAITs on
// the replica before reading; on a leader it waits out async writes on
// another connection. timeout-ms 0 or absent waits until server shutdown.
func cmdWait(c *conn, args [][]byte) bool {
	target, ok := parseInt(args[1])
	if !ok || target < 0 {
		c.writeErrArg("invalid epoch", args[1])
		return false
	}
	var timeout time.Duration
	if len(args) == 3 {
		ms, ok := parseInt(args[2])
		if !ok || ms < 0 {
			c.writeErrArg("invalid timeout", args[2])
			return false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}

	epoch, reached := c.srv.m.WaitEpoch(uint64(target), timeout, c.srv.closeCh)
	switch {
	case reached:
		c.wr.WriteInt(int64(epoch))
	case c.srv.closing.Load():
		c.writeError("ERR WAIT canceled: server shutting down")
	default:
		c.writeError("ERR WAIT timed out")
	}
	return false
}
