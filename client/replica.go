package client

import (
	"time"

	"repro/resp"
)

// WaitGate is the epoch bookkeeping of read-your-writes against one read
// endpoint: the highest epoch covering the caller's writes, the highest
// the endpoint has proved it applied, and the CORE.WAIT that closes the
// gap. A session holds one per read endpoint. The zero value owes nothing.
type WaitGate struct {
	epoch  uint64 // highest epoch covering the caller's writes
	waited uint64 // highest epoch the endpoint confirmed applying
}

// Cover records that a write was covered by epoch e.
func (g *WaitGate) Cover(e uint64) {
	if e > g.epoch {
		g.epoch = e
	}
}

// Epoch returns the highest epoch recorded by Cover.
func (g *WaitGate) Epoch() uint64 { return g.epoch }

// Owed reports whether the endpoint has yet to prove it applied Epoch.
func (g *WaitGate) Owed() bool { return g.epoch > g.waited }

// Send pipelines CORE.WAIT on Epoch onto c if one is owed, bounded by
// timeout (0 = until the endpoint catches up or disconnects; the wire
// carries whole milliseconds, at least 1). It reports whether a reply is
// now owed on c — claim it with Receive, after the flush.
func (g *WaitGate) Send(c *Conn, timeout time.Duration) (sent bool, err error) {
	if !g.Owed() {
		return false, nil
	}
	if timeout > 0 {
		err = c.Send("CORE.WAIT", g.epoch, max(int64(timeout/time.Millisecond), 1))
	} else {
		err = c.Send("CORE.WAIT", g.epoch)
	}
	return err == nil, err
}

// Receive reads the reply to a sent CORE.WAIT and settles the gate. An
// error (a WAIT timeout included) leaves it owed: replies pipelined
// behind the gate may be stale.
func (g *WaitGate) Receive(c *Conn) error {
	if _, err := Int(c.Receive()); err != nil {
		return err
	}
	g.waited = g.epoch
	return nil
}

// ReplicaSession scales reads out to a follower without giving up
// read-your-writes. Writes go to the leader, pipelined with CORE.EPOCH
// in the same round trip, so the session learns the epoch that covers
// each acked write for free; reads go to the replica, gated by a
// pipelined CORE.WAIT on that epoch, so they can never observe state
// older than the session's own writes.
//
// A ReplicaSession is not safe for concurrent use (it owns its two
// connections the way a Conn owns its socket); pool sessions like
// connections.
type ReplicaSession struct {
	leader  *Conn
	replica *Conn
	// WaitTimeout bounds each read-side CORE.WAIT (0 = wait until the
	// replica catches up or disconnects).
	WaitTimeout time.Duration

	gate WaitGate
}

// NewReplicaSession pairs a leader connection (writes) with a replica
// connection (reads).
func NewReplicaSession(leader, replica *Conn) *ReplicaSession {
	return &ReplicaSession{leader: leader, replica: replica}
}

// Epoch returns the highest leader epoch known to cover this session's
// writes.
func (s *ReplicaSession) Epoch() uint64 { return s.gate.Epoch() }

// Write runs a write on the leader and captures the covering epoch —
// one round trip (the write and CORE.EPOCH share a pipeline).
func (s *ReplicaSession) Write(cmd string, args ...any) (resp.Value, error) {
	if err := s.leader.Send(cmd, args...); err != nil {
		return resp.Value{}, err
	}
	if err := s.leader.Send("CORE.EPOCH"); err != nil {
		return resp.Value{}, err
	}
	if err := s.leader.Flush(); err != nil {
		return resp.Value{}, err
	}
	v, werr := s.leader.Receive()
	e, eerr := Int(s.leader.Receive())
	if eerr == nil {
		s.gate.Cover(uint64(e))
	}
	if werr != nil {
		return resp.Value{}, werr
	}
	if eerr != nil {
		return resp.Value{}, eerr
	}
	return v, nil
}

// Read runs a read on the replica. If the session has written since the
// replica last proved it caught up, the read is preceded by CORE.WAIT
// on the write's epoch — pipelined, so the gate costs no extra round
// trip. A WAIT timeout surfaces as the error (the read's reply is
// discarded: it may be stale).
func (s *ReplicaSession) Read(cmd string, args ...any) (resp.Value, error) {
	gated, err := s.gate.Send(s.replica, s.WaitTimeout)
	if err != nil {
		return resp.Value{}, err
	}
	if !gated {
		return s.replica.Do(cmd, args...)
	}
	if err := s.replica.Send(cmd, args...); err != nil {
		return resp.Value{}, err
	}
	if err := s.replica.Flush(); err != nil {
		return resp.Value{}, err
	}
	werr := s.gate.Receive(s.replica)
	v, rerr := s.replica.Receive()
	if werr != nil {
		return resp.Value{}, werr
	}
	if rerr != nil {
		return resp.Value{}, rerr
	}
	return v, nil
}
