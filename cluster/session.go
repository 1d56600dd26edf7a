package cluster

import (
	"time"

	"repro/client"
	"repro/graph"
)

// Session layers cross-shard read-your-writes over a Cluster: every
// write captures the covering epoch of each shard it touched (the
// router pipelines CORE.EPOCH into the write flush, so this costs no
// extra round trip), and every read is gated by a pipelined CORE.WAIT
// on that epoch against the session's pinned read endpoint for the
// shard. With replicas in the map, reads scale out to followers without
// ever observing state older than the session's own writes; over a
// one-shard map whose shard lists a replica, a Session is the plain
// leader-writes, follower-reads recipe of the replication layer.
//
// A Session pins one read connection per shard (the first replica if
// the shard has any, else the leader), dialed lazily. It is not safe
// for concurrent use — sessions are per-goroutine, like connections.
type Session struct {
	c *Cluster
	// WaitTimeout bounds each read-side CORE.WAIT (0 = wait until the
	// endpoint catches up or disconnects).
	WaitTimeout time.Duration

	gates []waitGate // per shard: the read endpoint's epoch gate
	reads []*client.Conn
}

// NewSession starts a read-your-writes session over the cluster.
func (c *Cluster) NewSession() *Session {
	n := c.m.NumShards()
	return &Session{
		c:     c,
		gates: make([]waitGate, n),
		reads: make([]*client.Conn, n),
	}
}

// Close releases the session's pinned read connections.
func (s *Session) Close() error {
	for i, conn := range s.reads {
		if conn != nil {
			conn.Close()
			s.reads[i] = nil
		}
	}
	return nil
}

// ReadAddr returns the endpoint shard i's reads are pinned to.
func (s *Session) ReadAddr(i int) string {
	sh := s.c.m.Shard(i)
	if len(sh.Replicas) > 0 {
		return sh.Replicas[0]
	}
	return sh.Leader
}

func (s *Session) readConn(i int) (*client.Conn, error) {
	if s.reads[i] != nil && s.reads[i].Err() == nil {
		return s.reads[i], nil
	}
	if s.reads[i] != nil {
		s.reads[i].Close()
		// Re-dialing resets the connection, not the session's epoch
		// bookkeeping: gates[i] tracks the *server's* published epoch,
		// which survives our reconnect.
	}
	conn, err := client.Dial(s.ReadAddr(i), client.WithDialTimeout(dialTimeout))
	if err != nil {
		s.reads[i] = nil
		return nil, err
	}
	s.reads[i] = conn
	return conn, nil
}

func (s *Session) recordEpochs(ev []uint64) {
	for i, e := range ev {
		s.gates[i].cover(e)
	}
}

// InsertEdges routes a write burst and records each touched shard's
// covering epoch.
func (s *Session) InsertEdges(edges []graph.Edge) error {
	ev := make([]uint64, len(s.gates))
	err := s.c.InsertEdges(edges, ev)
	s.recordEpochs(ev)
	return err
}

// RemoveEdges routes a removal burst and records covering epochs.
func (s *Session) RemoveEdges(edges []graph.Edge) error {
	ev := make([]uint64, len(s.gates))
	err := s.c.RemoveEdges(edges, ev)
	s.recordEpochs(ev)
	return err
}

// Get reads global vertex g's core number from the owning shard's
// pinned read endpoint, gated so it observes this session's writes.
func (s *Session) Get(g int32) (int32, error) {
	out, err := s.MGet([]int32{g})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// MGet reads core numbers in input order from each owning shard's
// pinned read endpoint, every per-shard pipeline led by its CORE.WAIT
// gate: gate, chunked CORE.MGETs, one flush — the gate costs no extra
// round trip. Shards run sequentially over the session's own pinned
// connections (a session is single-caller by contract; its scatter
// parallelism lives in the Cluster's pooled paths).
func (s *Session) MGet(ids []int32) ([]int32, error) {
	locals, positions, err := s.c.groupByOwner(ids)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(ids))
	for i := range locals {
		if len(locals[i]) == 0 {
			continue
		}
		if err := s.readShard(i, locals[i], func(j int, k int32) {
			out[positions[i][j]] = k
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readShard runs one shard's gated MGET pipeline: WAIT gate (if owed),
// chunked CORE.MGETs, flush, gate reply, value replies.
func (s *Session) readShard(i int, locals []int32, sink func(j int, k int32)) error {
	conn, err := s.readConn(i)
	if err != nil {
		return s.c.wrapShardErr(i, err)
	}
	gated, err := s.gates[i].send(conn, s.WaitTimeout)
	if err != nil {
		return s.c.wrapShardErr(i, err)
	}
	sent, err := mgetSend(conn, locals)
	if err != nil {
		return s.c.wrapShardErr(i, err)
	}
	if err := conn.Flush(); err != nil {
		return s.c.wrapShardErr(i, err)
	}
	if gated {
		if err := s.gates[i].receive(conn); err != nil {
			// Timed-out WAIT: the MGET replies behind it may be stale, and
			// the client poisons the conn only on transport errors — drop
			// the connection so the next read starts clean.
			conn.Close()
			return s.c.wrapShardErr(i, err)
		}
	}
	if err := mgetRecv(conn, sent, len(locals), sink); err != nil {
		return s.c.wrapShardErr(i, err)
	}
	return nil
}

// Wait is the cross-shard read-your-writes barrier: it blocks until
// every shard's pinned read endpoint has applied this session's writes
// (CORE.WAIT on each shard where an epoch is still owed). After Wait,
// any connection to the session's read endpoints — not just this
// session's — observes the writes.
func (s *Session) Wait() error {
	for i := range s.gates {
		if !s.gates[i].owed() {
			continue
		}
		conn, err := s.readConn(i)
		if err != nil {
			return s.c.wrapShardErr(i, err)
		}
		if _, err := s.gates[i].send(conn, s.WaitTimeout); err != nil {
			return s.c.wrapShardErr(i, err)
		}
		if err := conn.Flush(); err != nil {
			return s.c.wrapShardErr(i, err)
		}
		if err := s.gates[i].receive(conn); err != nil {
			conn.Close()
			return s.c.wrapShardErr(i, err)
		}
	}
	return nil
}

// waitGate is the epoch bookkeeping of read-your-writes against one read
// endpoint: the highest epoch covering the session's writes, the highest
// the endpoint has proved it applied, and the CORE.WAIT that closes the
// gap. The zero value owes nothing.
type waitGate struct {
	epoch  uint64 // highest epoch covering the session's writes
	waited uint64 // highest epoch the endpoint confirmed applying
}

// cover records that a write was covered by epoch e.
func (g *waitGate) cover(e uint64) {
	if e > g.epoch {
		g.epoch = e
	}
}

// owed reports whether the endpoint has yet to prove it applied epoch.
func (g *waitGate) owed() bool { return g.epoch > g.waited }

// send pipelines CORE.WAIT on epoch onto c if one is owed, bounded by
// timeout (0 = until the endpoint catches up or disconnects; the wire
// carries whole milliseconds, at least 1). It reports whether a reply is
// now owed on c — claim it with receive, after the flush.
func (g *waitGate) send(c *client.Conn, timeout time.Duration) (sent bool, err error) {
	if !g.owed() {
		return false, nil
	}
	if timeout > 0 {
		err = c.Send("CORE.WAIT", g.epoch, max(int64(timeout/time.Millisecond), 1))
	} else {
		err = c.Send("CORE.WAIT", g.epoch)
	}
	return err == nil, err
}

// receive reads the reply to a sent CORE.WAIT and settles the gate. An
// error (a WAIT timeout included) leaves it owed: replies pipelined
// behind the gate may be stale.
func (g *waitGate) receive(c *client.Conn) error {
	if _, err := client.Int(c.Receive()); err != nil {
		return err
	}
	g.waited = g.epoch
	return nil
}
