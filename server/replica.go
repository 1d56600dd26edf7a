package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
	"repro/resp"
)

// Replica keeps a Server in follower mode: it bootstraps from a leader's
// CORE.SYNC snapshot by reloading the server's one maintainer in place
// at the snapshot's epoch (kcore.Maintainer.Reload), and applies the
// streamed tail through the ordinary maintainer API. Each streamed record
// is one leader publication at the epoch it names — an edge batch, an
// explicit growth included — applied as one Submit: one engine batch,
// which publishes exactly that epoch. So the follower's epoch is the
// leader's, every state it serves is one the leader published at the
// same epoch, and CORE.EPOCH and CORE.WAIT read the maintainer as on a
// leader. A record that is not the publication right after the
// maintainer's epoch, or that does not publish its own epoch with every
// insert kept, ends the session, and the follower re-bootstraps instead
// of diverging.
//
// Before its first bootstrap the follower serves the empty graph at
// epoch 0, which no leader state has, so a CORE.WAIT for any leader epoch
// parks until a snapshot is loaded. A FULLSYNC at or below the follower's
// epoch (an idle leader's reconnect, or a leader whose history forked)
// reloads at the leader's epoch too; until that re-bootstrap, a forked
// follower serves its pre-fork state under its old numbers (DESIGN.md,
// "One epoch space").
//
// The follower runs the engine its maintainer was built with, and the
// maintainer's metrics and identity live across every bootstrap. Reads
// stay lock-free off the local snapshot; write commands are rejected
// (denyOnReplica).
//
// The loop reconnects forever with backoff. Every (re)connect is a full
// re-bootstrap: a leader's sync session starts at the checkpoint it
// takes, never at the follower's own epoch, so there is nothing to
// resume from. Starting the session's log cursor at the follower's
// epoch instead is ROADMAP item 21.
type Replica struct {
	srv    *Server
	leader string

	quit chan struct{}
	wg   sync.WaitGroup

	connected atomic.Bool
	syncs     atomic.Int64 // completed bootstraps
	records   atomic.Int64 // stream records read (heartbeats included)
	edges     atomic.Int64 // edges of the leader batches applied
	lastErr   atomic.Pointer[string]

	// leaderEpoch is the newest leader epoch seen on the wire (the FULLSYNC
	// checkpoint's header, then every record's), stored before the record
	// applies — so leaderEpoch minus the maintainer's epoch exposes the
	// apply backlog, most visibly during a bootstrap's reload.
	leaderEpoch atomic.Uint64
}

// NewReplica puts srv into follower mode, replicating from the leader at
// leaderAddr ("host:port"): it reloads srv's maintainer with the empty
// graph at epoch 0, discarding its graph, and every bootstrap reloads it
// again. The follower logs through srv's logger (WithLogger). Call Start to
// begin syncing and Close to stop. Must be called before the server serves
// traffic.
func NewReplica(srv *Server, leaderAddr string) *Replica {
	srv.m.Reload(graph.New(0), 0)
	r := &Replica{
		srv:    srv,
		leader: leaderAddr,
		quit:   make(chan struct{}),
	}
	srv.replica = r
	return r
}

// Start launches the replication loop.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Close stops the replication loop and waits for it to exit. The
// server keeps serving reads off the last applied state.
func (r *Replica) Close() {
	close(r.quit)
	r.wg.Wait()
}

func (r *Replica) loop() {
	defer r.wg.Done()
	backoff := 250 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		select {
		case <-r.quit:
			return
		default:
		}
		start := time.Now()
		err := r.syncOnce()
		r.connected.Store(false)
		select {
		case <-r.quit:
			return
		default:
		}
		if err != nil {
			msg := err.Error()
			r.lastErr.Store(&msg)
			r.srv.logf("replica: sync from %s: %v (retry in %v)", r.leader, err, backoff)
		}
		// A session that streamed for a while earned a fresh backoff.
		if time.Since(start) > 10*time.Second {
			backoff = 250 * time.Millisecond
		}
		select {
		case <-r.quit:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// syncOnce runs one full replication session: dial, FULLSYNC handshake,
// snapshot bootstrap, then the endless tail until the connection breaks
// or the replica closes. A nil return means the session ended because
// the replica is shutting down.
func (r *Replica) syncOnce() error {
	nc, err := (&net.Dialer{Timeout: 5 * time.Second}).Dial("tcp", r.leader)
	if err != nil {
		return err
	}
	defer nc.Close()
	// The tail read blocks in a buffered reader; closing the socket from
	// a watcher is the only reliable cancel.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.quit:
			nc.Close()
		case <-done:
		}
	}()

	wr := resp.NewWriterSize(nc, 256)
	wr.WriteCommand("CORE.SYNC")
	if err := wr.Flush(); err != nil {
		return err
	}

	pr := &deadlineReader{nc: nc, timeout: 10 * time.Second}
	br := bufio.NewReaderSize(pr, 64<<10)
	line, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if strings.HasPrefix(line, "-") {
		return errors.New("leader refused: " + strings.TrimPrefix(line, "-"))
	}
	var size int64
	if _, err := fmt.Sscanf(line, "+FULLSYNC %d", &size); err != nil {
		return fmt.Errorf("bad handshake %q: %w", line, err)
	}
	// The snapshot is the leader's checkpoint file, decoded straight off
	// the socket: its graph header must account for size before anything
	// is allocated.
	g, gen, epoch, err := persist.ReadCheckpoint(br, size)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}

	r.leaderEpoch.Store(epoch)

	m := r.srv.maintainer()
	m.Reload(g, epoch)
	r.syncs.Add(1)
	r.connected.Store(true)
	r.lastErr.Store(nil)
	r.srv.logf("replica: synced gen %d epoch %d from %s (n=%d m=%d)", gen, epoch, r.leader, g.N(), g.M())

	// The tail: each record is one leader publication, at the epoch it
	// names. The record at the maintainer's epoch + 1 applies as one
	// engine batch, which must publish exactly that epoch with every
	// insert kept, so the follower serves only states the leader
	// published; an idle leader's heartbeat, an empty batch at or below the
	// epoch, publishes nothing. Any other record, or a batch whose growth
	// the universe scan drops (a -maxvertices below the leader's
	// universe), means this stream is not the leader's history from the
	// snapshot on, and the session ends: the next one re-bootstraps, and
	// its Reload raises the ceiling to the snapshot's N.
	sr := persist.NewStreamReader(br)
	var pd kcore.Pending
	beyond := func(e graph.Edge) bool { return int(max(e.U, e.V)) >= m.N() }
	// An idle leader sends a heartbeat every second; a 5s silence means a
	// dead peer.
	pr.timeout = 5 * time.Second
	for {
		rec, err := sr.Next()
		if err != nil {
			select {
			case <-r.quit:
				return nil
			default:
			}
			return fmt.Errorf("stream: %w", err)
		}
		r.records.Add(1)
		cur := m.Epoch()
		k := len(rec.Removes) + len(rec.Inserts)
		heartbeat := k == 0
		switch {
		case heartbeat && rec.Epoch <= cur:
			continue
		case heartbeat || rec.Epoch != cur+1:
			return fmt.Errorf("stream: record at epoch %d after epoch %d", rec.Epoch, cur)
		}
		r.leaderEpoch.Store(rec.Epoch)
		// The edges alias the reader's scratch: Wait returns before the
		// next read reuses it.
		m.Submit(&pd, rec.Removes, rec.Inserts)
		pd.Wait()
		if e := m.Epoch(); e != rec.Epoch || slices.ContainsFunc(rec.Inserts, beyond) {
			return fmt.Errorf("stream: record at epoch %d published epoch %d over %d vertices", rec.Epoch, e, m.N())
		}
		r.edges.Add(int64(k))
	}
}

// deadlineReader reads nc with a fresh deadline, timeout from now, on
// every read: it bounds a stall, not a transfer, so a slow but live leader
// still delivers a snapshot of any size.
type deadlineReader struct {
	nc      net.Conn
	timeout time.Duration
}

func (d *deadlineReader) Read(b []byte) (int, error) {
	d.nc.SetReadDeadline(time.Now().Add(d.timeout))
	return d.nc.Read(b)
}

// epochLag is the leader-vs-applied epoch delta (clamped at 0: the
// maintainer's epoch and the leader epoch are read apart).
func (r *Replica) epochLag() int64 {
	lag := int64(r.leaderEpoch.Load()) - int64(r.srv.m.Epoch())
	if lag < 0 {
		return 0
	}
	return lag
}

// registerMetrics adds the replication-side metrics to reg (called from
// Server.RegisterMetrics on a follower).
func (r *Replica) registerMetrics(reg *obs.Registry) {
	reg.MustRegister(
		obs.NewGaugeSeriesFunc("kcored_replica_info", "The leader replicated from and the last session error (\"\" after a successful bootstrap); the value is always 1.",
			func() []obs.Sample {
				lastErr := ""
				if p := r.lastErr.Load(); p != nil {
					lastErr = *p
				}
				return []obs.Sample{{Labels: []obs.Label{obs.L("leader", r.leader), obs.L("last_error", lastErr)}, Value: 1}}
			}),
		obs.NewGaugeFunc("kcored_replica_connected", "1 while a replication session is streaming, else 0.",
			func() float64 {
				if r.connected.Load() {
					return 1
				}
				return 0
			}),
		obs.NewCounterFunc("kcored_replica_syncs_total", "Completed FULLSYNC bootstraps.",
			func() float64 { return float64(r.syncs.Load()) }),
		obs.NewCounterFunc("kcored_replica_records_total", "Op-stream records read, one per leader publication (idle heartbeats included).",
			func() float64 { return float64(r.records.Load()) }),
		obs.NewCounterFunc("kcored_replica_edges_total", "Edges applied through streamed batch records.",
			func() float64 { return float64(r.edges.Load()) }),
		obs.NewGaugeFunc("kcored_replica_leader_epoch", "Newest leader epoch seen on the replication stream.",
			func() float64 { return float64(r.leaderEpoch.Load()) }),
		obs.NewGaugeFunc("kcored_replica_epoch_lag", "Newest leader epoch seen minus kcored_epoch, clamped at 0 (apply backlog).",
			func() float64 { return float64(r.epochLag()) }),
	)
}
