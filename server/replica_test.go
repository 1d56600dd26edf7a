package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
	"repro/persist"
)

// startLeaderServer brings up a persistent leader over g.
func startLeaderServer(t *testing.T, g *graph.Graph, popts persist.Options) (*kcore.Maintainer, string) {
	t.Helper()
	m, _, addr := startLeader(t, g, popts)
	return m, addr
}

// startLeader is startLeaderServer also returning the leader's manager.
func startLeader(t *testing.T, g *graph.Graph, popts persist.Options) (*kcore.Maintainer, *persist.Manager, string) {
	t.Helper()
	mgr, err := persist.NewManager(t.TempDir(), popts)
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(g, kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); m.Close() })
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, m, WithPersistence(mgr))
	return m, mgr, addr
}

// startReplicaServer brings up a follower of the leader at leaderAddr,
// its maintainer built with opts.
func startReplicaServer(t *testing.T, leaderAddr string, opts ...kcore.Option) (*Server, string) {
	t.Helper()
	srv := New(kcore.New(graph.New(0), append([]kcore.Option{kcore.WithWorkers(2)}, opts...)...))
	rep := NewReplica(srv, leaderAddr, ReplicaOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Maintainer().Close() })
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	t.Cleanup(rep.Close)
	rep.Start()
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// waitStat polls c's CORE.STATS until series name reads want.
func waitStat(t *testing.T, c *client.Conn, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		kv := statsMap(t, c)
		if kv[name] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never read %v; stats: %v", name, want, kv)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationConverges is the e2e contract: two followers of one
// leader under mixed wire-driven churn (inserts, removes, implicit and
// explicit growth) converge — after CORE.WAIT on the leader's final
// epoch, a full MGET sweep on each follower is byte-equal to a fresh
// decomposition of the leader's final graph.
func TestReplicationConverges(t *testing.T) {
	m, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(300, 900, 23),
		persist.Options{Fsync: persist.FsyncNo})
	_, addrA := startReplicaServer(t, leaderAddr)
	_, addrB := startReplicaServer(t, leaderAddr)

	lc := dial(t, leaderAddr)
	// Mixed churn, pipelined: dense inserts, some removes, an implicit
	// grow (edge beyond N), an explicit CORE.GROW, then edges into the
	// grown range.
	sent := 0
	for i := 0; i < 200; i++ {
		if err := lc.Send("CORE.INSERT", i%300, (i*7+1)%300); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	for i := 0; i < 50; i++ {
		if err := lc.Send("CORE.REMOVE", i%300, (i*7+1)%300); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	lc.Send("CORE.INSERT", 320, 5) // implicit growth
	sent++
	if err := lc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sent; i++ {
		if _, err := lc.Receive(); err != nil {
			t.Fatalf("churn reply %d: %v", i, err)
		}
	}
	if _, err := client.Int(lc.Do("CORE.GROW", 400)); err != nil {
		t.Fatal(err)
	}
	for i := 350; i < 399; i++ {
		if err := lc.Send("CORE.INSERT", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 350; i < 399; i++ {
		if _, err := lc.Receive(); err != nil {
			t.Fatalf("grown-range insert: %v", err)
		}
	}
	epoch, err := client.Int(lc.Do("CORE.FLUSH"))
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: a fresh decomposition of the leader's final graph
	// (stable: all writes flushed, no further churn).
	want, _ := bz.Decompose(m.Graph().Clone())

	for _, addr := range []string{addrA, addrB} {
		rc := dial(t, addr)
		if kv := statsMap(t, rc); !hasSeries(kv, "kcored_info", `role="replica"`) {
			t.Fatalf("no kcored_info{role=\"replica\"} on the follower: %v", kv)
		}
		applied, err := client.Int(rc.Do("CORE.WAIT", epoch, 15000))
		if err != nil {
			t.Fatalf("CORE.WAIT %d on %s: %v", epoch, addr, err)
		}
		if applied < epoch {
			t.Fatalf("CORE.WAIT returned %d < target %d", applied, epoch)
		}
		n, err := client.Int(rc.Do("CORE.N"))
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != len(want) {
			t.Fatalf("follower %s: N = %d, want %d", addr, n, len(want))
		}
		got := sweepCores(t, rc, len(want))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("follower %s: core[%d] = %d, want %d", addr, v, got[v], want[v])
			}
		}
		// The follower's own invariants hold against a fresh decompose.
		if s, err := client.String(rc.Do("CORE.CHECK")); err != nil || s != "OK" {
			t.Fatalf("CORE.CHECK on follower: %q, %v", s, err)
		}
	}
}

// waitApplied blocks until the follower srv serves epoch, with the
// bookkeeping of what published it done: a Reload publishes before the
// session counts its sync, and a batch before the pipeline counts it.
func waitApplied(t *testing.T, srv *Server, epoch uint64) {
	t.Helper()
	m := srv.Maintainer()
	if got, ok := m.WaitEpoch(epoch, 15*time.Second, nil); !ok {
		t.Fatalf("follower epoch %d never reached leader epoch %d", got, epoch)
	}
	m.Flush()
	for deadline := time.Now().Add(15 * time.Second); !srv.replica.connected.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower's bootstrap never finished")
		}
	}
}

// TestFollowerReplaysLeaderBatches: one leader batch that both removes
// and inserts is one engine batch and one epoch on the follower too, and
// the follower's cores then equal a fresh decomposition of the leader's
// graph.
func TestFollowerReplaysLeaderBatches(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 47)
	removes := g.Edges()[:20]
	var inserts []graph.Edge
	for u := int32(0); len(inserts) < 3; u++ {
		if !g.HasEdge(u, u+100) {
			inserts = append(inserts, graph.Edge{U: u, V: u + 100})
		}
	}
	m, leaderAddr := startLeaderServer(t, g, persist.Options{Fsync: persist.FsyncNo})
	srvR, _ := startReplicaServer(t, leaderAddr)
	mR := srvR.Maintainer()
	waitApplied(t, srvR, m.Flush())
	lead0, fol0 := m.ServingStats(), mR.ServingStats()

	// Park the leader's applier so the removal and the insertion coalesce
	// into one batch.
	entered, gate, held := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		m.AtQuiescence(func(kcore.QuiescentState) { close(entered); <-gate })
	}()
	<-entered
	var rm, in kcore.Pending
	m.Submit(&rm, removes, nil)
	m.Submit(&in, nil, inserts)
	close(gate)
	<-held
	if res := rm.Wait(); res.Coalesced != 2 {
		t.Fatalf("the removal and the insertion did not share a batch: %+v", res)
	}
	in.Wait()
	if lead := m.ServingStats(); lead.Batches-lead0.Batches != 1 || lead.Epoch-lead0.Epoch != 1 {
		t.Fatalf("leader moved by %d batches and %d epochs, want 1 and 1",
			lead.Batches-lead0.Batches, lead.Epoch-lead0.Epoch)
	}

	waitApplied(t, srvR, m.Flush())
	if fol := mR.ServingStats(); fol.Batches-fol0.Batches != 1 || fol.Epoch-fol0.Epoch != 1 {
		t.Fatalf("follower moved by %d batches and %d epochs for one leader batch, want 1 and 1",
			fol.Batches-fol0.Batches, fol.Epoch-fol0.Epoch)
	}
	want, _ := bz.Decompose(m.Graph().Clone())
	if got := mR.CoreNumbers(); !slices.Equal(got, want) {
		t.Fatalf("follower cores differ from BZ of the leader's graph")
	}
}

// TestFollowerRefusesEpochGap: a record logged outside any publication
// takes the epoch the next real batch's record takes too, so the
// follower, having applied the first, meets the second at or below its
// epoch. It ends the session rather than diverge, and the re-bootstrap
// leaves it at the leader's state.
func TestFollowerRefusesEpochGap(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 53)
	removes := g.Edges()[:20]
	m, mgr, leaderAddr := startLeader(t, g, persist.Options{Fsync: persist.FsyncNo})
	srvR, _ := startReplicaServer(t, leaderAddr)
	rep, mR := srvR.replica, srvR.Maintainer()
	waitApplied(t, srvR, m.Flush())
	syncs := rep.syncs.Load()

	mgr.AppendBatch(removes, nil)
	m.InsertEdge(0, 199)
	var lastErr string
	for deadline := time.Now().Add(10 * time.Second); lastErr == ""; time.Sleep(time.Millisecond) {
		if p := rep.lastErr.Load(); p != nil {
			lastErr = *p
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower kept its session past a record at an applied epoch")
		}
	}
	if !strings.Contains(lastErr, "epoch") {
		t.Fatalf("session ended with %q, want the epoch check", lastErr)
	}
	for deadline := time.Now().Add(15 * time.Second); rep.syncs.Load() == syncs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never re-bootstrapped")
		}
	}
	waitApplied(t, srvR, m.Flush())
	want, _ := bz.Decompose(m.Graph().Clone())
	if got := mR.CoreNumbers(); !slices.Equal(got, want) {
		t.Fatalf("follower cores differ from BZ of the leader's graph after the re-bootstrap")
	}
}

// TestFollowerServesLeaderEpoch: a follower publishes each leader state
// at the leader's epoch, so after CORE.WAIT E its CORE.EPOCH is E — one
// epoch space, not a watermark beside a count of its own.
func TestFollowerServesLeaderEpoch(t *testing.T) {
	m, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(100, 300, 59),
		persist.Options{Fsync: persist.FsyncNo})
	_, repAddr := startReplicaServer(t, leaderAddr)
	rc := dial(t, repAddr)
	if _, err := client.Int(rc.Do("CORE.WAIT", int64(m.Flush()), 15000)); err != nil {
		t.Fatal(err)
	}
	// Fifty single-edge batches, one leader epoch each.
	for i := range 50 {
		m.InsertEdge(int32(i), int32(50+i))
	}
	epoch := int64(m.Flush())
	reached, err := client.Int(rc.Do("CORE.WAIT", epoch, 15000))
	if err != nil {
		t.Fatalf("CORE.WAIT %d: %v", epoch, err)
	}
	served, err := client.Int(rc.Do("CORE.EPOCH"))
	if err != nil {
		t.Fatal(err)
	}
	if reached != epoch || served != epoch {
		t.Fatalf("follower CORE.WAIT %d returned %d and CORE.EPOCH reads %d; want the leader's %d for both",
			epoch, reached, served, epoch)
	}
}

// TestFollowerWaitsForFirstBootstrap: before its first bootstrap a
// follower serves the empty graph at epoch 0, which no leader state has,
// so CORE.WAIT 1 parks until the leader's snapshot is loaded, and the
// read pipelined behind it sees the leader's state.
func TestFollowerWaitsForFirstBootstrap(t *testing.T) {
	// The leader's listener exists, so the follower's dial succeeds, but
	// nothing serves it yet: CORE.SYNC waits in the accept backlog.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, repAddr := startReplicaServer(t, ln.Addr().String())
	rc := dial(t, repAddr)
	if e, err := client.Int(rc.Do("CORE.EPOCH")); err != nil || e != 0 {
		t.Fatalf("CORE.EPOCH before the first bootstrap = %d, %v; want 0", e, err)
	}
	var se *client.ServerError
	if _, err := rc.Do("CORE.WAIT", 1, 50); !errors.As(err, &se) || se.Msg != "ERR WAIT timed out" {
		t.Fatalf("CORE.WAIT 1 before the first bootstrap: %v, want ERR WAIT timed out", err)
	}
	if err := rc.Send("CORE.WAIT", 1, 15000); err != nil {
		t.Fatal(err)
	}
	if err := rc.Send("CORE.N"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	mgr, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(gen.ErdosRenyi(70, 200, 61), kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); m.Close() })
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	srv := New(m, WithPersistence(mgr))
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	if e, err := client.Int(rc.Receive()); err != nil || e != int64(m.Epoch()) {
		t.Fatalf("CORE.WAIT 1 = %d, %v; want the leader's epoch %d", e, err, m.Epoch())
	}
	if n, err := client.Int(rc.Receive()); err != nil || n != 70 {
		t.Fatalf("CORE.N behind CORE.WAIT 1 = %d, %v; want the leader's 70", n, err)
	}
}

// TestFollowerBelowLeaderCeiling: a follower whose vertex ceiling is
// below the leader's universe drops a growing insert in its universe
// scan. A batch of nothing but such inserts then publishes no epoch, and
// a batch that also holds an insert in range publishes its epoch without
// the growth; either ends the session instead of letting the follower
// diverge, and the re-bootstrap's Reload raises the ceiling to the
// snapshot's N: the follower converges on the leader's N and cores.
func TestFollowerBelowLeaderCeiling(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 67)
	inRange := graph.Edge{U: 3}
	for inRange.V = 40; g.HasEdge(inRange.U, inRange.V); inRange.V++ {
	}
	m, leaderAddr := startLeaderServer(t, g, persist.Options{Fsync: persist.FsyncNo})
	srvR, repAddr := startReplicaServer(t, leaderAddr, kcore.WithMaxVertices(100))
	rc := dial(t, repAddr)
	waitApplied(t, srvR, m.Flush())

	for _, tc := range []struct {
		name  string
		batch []graph.Edge
		n     int
	}{
		{"growth alone", []graph.Edge{{U: 149, V: 5}, {U: 149, V: 6}}, 150},
		{"growth beside an insert in range", []graph.Edge{inRange, {U: 199, V: 5}}, 200},
	} {
		syncs := srvR.replica.syncs.Load()
		m.InsertEdges(tc.batch)
		m.InsertEdge(1, 7)
		m.RemoveEdge(1, 7)
		epoch := m.Flush()
		if m.N() != tc.n {
			t.Fatalf("%s: leader N = %d, want %d", tc.name, m.N(), tc.n)
		}
		if _, err := client.Int(rc.Do("CORE.WAIT", int64(epoch), 15000)); err != nil {
			t.Fatalf("%s: CORE.WAIT %d: %v", tc.name, epoch, err)
		}
		want, _ := bz.Decompose(m.Graph().Clone())
		if n, err := client.Int(rc.Do("CORE.N")); err != nil || int(n) != len(want) {
			t.Fatalf("%s: follower CORE.N = %d, %v; want the leader's %d", tc.name, n, err, len(want))
		}
		if got := sweepCores(t, rc, len(want)); !slices.Equal(got, want) {
			t.Fatalf("%s: follower cores differ from BZ of the leader's graph", tc.name)
		}
		// The re-bootstrap's Reload publishes before the session counts it.
		for deadline := time.Now().Add(15 * time.Second); srvR.replica.syncs.Load() == syncs; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the follower never re-synced past its ceiling", tc.name)
			}
		}
	}
}

// TestWaitReadYourWrites: a client acks a write on the leader, captures
// the epoch in the same pipeline, WAITs on the follower, reads — the
// read must observe the write, every round. A follower WAIT then fails
// as a leader's does: timed out past its timeout, canceled at Shutdown.
func TestWaitReadYourWrites(t *testing.T) {
	_, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(100, 300, 29),
		persist.Options{Fsync: persist.FsyncNo})
	srvR, repAddr := startReplicaServer(t, leaderAddr)

	lc := dial(t, leaderAddr)
	rc := dial(t, repAddr)
	for i := 0; i < 30; i++ {
		// A fresh vertex pair each round, so the insert always changes the
		// read's answer (0 → 1).
		u, v := 1000+2*i, 1001+2*i
		if err := lc.Send("CORE.INSERT", u, v); err != nil {
			t.Fatal(err)
		}
		if err := lc.Send("CORE.EPOCH"); err != nil {
			t.Fatal(err)
		}
		if err := lc.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Int(lc.Receive()); err != nil {
			t.Fatalf("round %d insert: %v", i, err)
		}
		epoch, err := client.Int(lc.Receive())
		if err != nil {
			t.Fatalf("round %d epoch: %v", i, err)
		}
		if _, err := client.Int(rc.Do("CORE.WAIT", epoch, 15000)); err != nil {
			t.Fatalf("round %d CORE.WAIT %d: %v", i, epoch, err)
		}
		k, err := client.Int(rc.Do("CORE.GET", u))
		if err != nil {
			t.Fatalf("round %d CORE.GET: %v", i, err)
		}
		if k < 1 {
			t.Fatalf("round %d: follower read core[%d] = %d after WAIT %d — stale read", i, u, k, epoch)
		}
	}

	var se *client.ServerError
	if _, err := rc.Do("CORE.WAIT", 1<<40, 20); !errors.As(err, &se) || se.Msg != "ERR WAIT timed out" {
		t.Fatalf("follower CORE.WAIT past its timeout: %v, want ERR WAIT timed out", err)
	}
	cmds := srvR.Stats().Commands
	if err := rc.Send("CORE.WAIT", 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srvR.Stats().Commands == cmds; {
		if time.Now().After(deadline) {
			t.Fatal("follower CORE.WAIT never reached dispatch")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvR.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := rc.Receive(); !errors.As(err, &se) || se.Msg != "ERR WAIT canceled: server shutting down" {
		t.Fatalf("follower CORE.WAIT at Shutdown: %v, want ERR WAIT canceled: server shutting down", err)
	}
}

// TestReplicaRejectsWrites: the write surface is leader-only.
func TestReplicaRejectsWrites(t *testing.T) {
	_, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(50, 100, 31),
		persist.Options{Fsync: persist.FsyncNo})
	_, repAddr := startReplicaServer(t, leaderAddr)
	rc := dial(t, repAddr)

	for _, cmd := range [][]any{
		{"CORE.INSERT", 1, 2},
		{"CORE.REMOVE", 1, 2},
		{"CORE.GROW", 100},
	} {
		_, err := rc.Do(cmd[0].(string), cmd[1:]...)
		var se *client.ServerError
		if !errors.As(err, &se) || !strings.HasPrefix(se.Msg, "READONLY") {
			t.Fatalf("%v on replica = %v, want READONLY error", cmd[0], err)
		}
	}
	// Reads still work.
	if _, err := client.Int(rc.Do("CORE.MAXCORE")); err != nil {
		t.Fatalf("read on replica: %v", err)
	}
}

// TestSyncSessionReleasesSnapshot: a CORE.SYNC session holds no copy of
// its FULLSYNC snapshot, neither once the follower has read it (the
// session then reads the log from disk) nor while a follower that read
// only the +FULLSYNC line stalls the transfer.
func TestSyncSessionReleasesSnapshot(t *testing.T) {
	_, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(1<<17, 1<<20, 3),
		persist.Options{Fsync: persist.FsyncNo})
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, tc := range []struct {
		name  string
		drain bool
	}{{"drained", true}, {"stalled", false}} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			nc, err := net.DialTimeout("tcp", leaderAddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(30 * time.Second))
			if _, err := io.WriteString(nc, "CORE.SYNC\r\n"); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(nc)
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			var size int64
			if _, err := fmt.Sscanf(line, "+FULLSYNC %d", &size); err != nil {
				t.Fatalf("handshake %q: %v", line, err)
			}
			if tc.drain {
				if _, err := io.CopyN(io.Discard, br, size); err != nil {
					t.Fatal(err)
				}
				// The idle leader's first record is its heartbeat, an empty
				// batch: the session is past the snapshot and parked on the
				// next epoch.
				if rec, err := persist.NewStreamReader(br).Next(); err != nil || len(rec.Removes)+len(rec.Inserts) > 0 {
					t.Fatalf("first streamed record = %+v, %v; want a heartbeat", rec, err)
				}
			} else {
				// Let the leader fill the socket buffers and block mid-snapshot.
				time.Sleep(200 * time.Millisecond)
			}
			grew := int64(liveHeap()) - int64(before)
			t.Logf("live heap %+.2f MiB during the session, snapshot %.2f MiB", float64(grew)/(1<<20), float64(size)/(1<<20))
			if grew >= size/4 {
				t.Fatalf("live heap grew %.2f MiB during the session, snapshot is %.2f MiB: want < 1/4 of it",
					float64(grew)/(1<<20), float64(size)/(1<<20))
			}
		})
	}
}

// TestSyncDeadlineBoundsProgress: the leader's write deadline bounds a
// stall, not the whole FULLSYNC transfer, so a follower reading a 9 MiB
// snapshot at about 10 MiB/s receives all of it under a 300 ms deadline
// that the whole transfer would overrun three times. The pace leaves the
// leader's writer margin: its kernel send buffer, which Linux autotunes up
// to 4 MiB by default, wakes a blocked writer only once about a third of
// it has drained, which takes some 130 ms at this pace.
func TestSyncDeadlineBoundsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 9 MiB snapshot at 10 MiB/s")
	}
	// Registered first, so it runs after the leader has shut down.
	t.Cleanup(func(d time.Duration) func() { return func() { syncWriteTimeout = d } }(syncWriteTimeout))
	syncWriteTimeout = 300 * time.Millisecond
	_, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(1<<17, 1<<20, 3),
		persist.Options{Fsync: persist.FsyncNo})

	nc, err := net.DialTimeout("tcp", leaderAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(64 << 10)
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.WriteString(nc, "CORE.SYNC\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	if _, err := fmt.Sscanf(line, "+FULLSYNC %d", &size); err != nil {
		t.Fatalf("handshake %q: %v", line, err)
	}
	// 256 KiB per 25 ms: about 10 MiB/s.
	snap := make([]byte, 0, size)
	step := make([]byte, 256<<10)
	start := time.Now()
	for i := time.Duration(1); int64(len(snap)) < size; i++ {
		n, err := io.ReadFull(br, step[:min(int64(len(step)), size-int64(len(snap)))])
		snap = append(snap, step[:n]...)
		if err != nil {
			t.Fatalf("received %d of %d snapshot bytes in %v: %v", len(snap), size, time.Since(start), err)
		}
		time.Sleep(time.Until(start.Add(i * 25 * time.Millisecond)))
	}
	if _, _, _, err := persist.ReadCheckpoint(bytes.NewReader(snap), size); err != nil {
		t.Fatalf("decode the received snapshot: %v", err)
	}
}

// TestSlowFollowerDroppedOverWire: a follower that never reads costs the
// leader its session and nothing else. The leader's writes and checks
// go on beside the stalled session, which ends once a write to the
// follower stalls past the write deadline — lowered here from 10 s, so
// the session's end within 5 s is the deadline's work.
func TestSlowFollowerDroppedOverWire(t *testing.T) {
	// Registered first, so it runs after the leader has shut down.
	t.Cleanup(func(d time.Duration) func() { return func() { syncWriteTimeout = d } }(syncWriteTimeout))
	syncWriteTimeout = 300 * time.Millisecond
	// A 9 MiB checkpoint outgrows the socket buffers: the FULLSYNC stalls.
	_, leaderAddr := startLeaderServer(t, gen.ErdosRenyi(1<<17, 1<<20, 37),
		persist.Options{Fsync: persist.FsyncNo})

	// A raw "follower" that sends CORE.SYNC and then never reads.
	nc, err := net.Dial("tcp", leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(64 << 10)
	if _, err := nc.Write([]byte("*1\r\n$9\r\nCORE.SYNC\r\n")); err != nil {
		t.Fatal(err)
	}
	lc := dial(t, leaderAddr)
	waitFor := func(cond func(kv map[string]float64) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if cond(statsMap(t, lc)) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats: %v", what, statsMap(t, lc))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor(func(kv map[string]float64) bool { return kv["kcored_sync_followers"] == 1 }, "follower registration")

	// The leader's serving and write paths are unharmed.
	if _, err := client.Int(lc.Do("CORE.INSERT", 0, 99)); err != nil {
		t.Fatalf("leader write beside the stalled session: %v", err)
	}
	if s, err := client.String(lc.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("leader CORE.CHECK beside the stalled session: %q, %v", s, err)
	}
	waitFor(func(kv map[string]float64) bool { return kv["kcored_sync_followers"] == 0 }, "the stalled session's end")
}

// TestReplicaResyncAfterLeaderRestart: a follower whose leader vanishes
// reconnects with backoff and re-bootstraps from the successor at the
// same address, ending byte-equal with the new leader's state. The
// successor runs on a fresh directory, so its history forked from the
// first leader's at a lower epoch: the re-bootstrap reloads the server's
// one maintainer at the successor's epoch, and the follower's epoch
// falls exactly as the leader's did.
func TestReplicaResyncAfterLeaderRestart(t *testing.T) {
	// First leader on a fixed port we can rebind after it dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leaderAddr := ln.Addr().String()

	mgr1, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	m1 := kcore.New(gen.ErdosRenyi(80, 240, 41), kcore.WithOpLog(mgr1), kcore.WithWorkers(2))
	if err := mgr1.Start(m1); err != nil {
		t.Fatal(err)
	}
	srv1 := New(m1, WithPersistence(mgr1))
	go srv1.Serve(ln)

	srvR, repAddr := startReplicaServer(t, leaderAddr)
	mR := srvR.Maintainer()
	rc := dial(t, repAddr)
	// Thirty single-edge batches carry the first leader's epochs well past
	// the successor's.
	for i := 0; i < 30; i++ {
		m1.InsertEdge(int32(i), int32(50+i%30))
	}
	epoch1 := m1.Flush()
	if _, err := client.Int(rc.Do("CORE.WAIT", int64(epoch1), 15000)); err != nil {
		t.Fatalf("WAIT on first leader: %v", err)
	}
	// The bootstrap's Reload publishes before the session counts it.
	waitStat(t, rc, "kcored_replica_connected", 1)
	syncs1 := statsMap(t, rc)["kcored_replica_syncs_total"]

	// Kill the first leader hard, and let the follower see it go.
	srv1.Close()
	mgr1.Close()
	m1.Close()
	waitStat(t, rc, "kcored_replica_connected", 0)

	// A successor — different graph — takes over the same address.
	var ln2 net.Listener
	for i := 0; i < 100; i++ {
		ln2, err = net.Listen("tcp", leaderAddr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", leaderAddr, err)
	}
	mgr2, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	m2 := kcore.New(gen.ErdosRenyi(120, 360, 43), kcore.WithOpLog(mgr2), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr2.Close(); m2.Close() })
	if err := mgr2.Start(m2); err != nil {
		t.Fatal(err)
	}
	srv2 := New(m2, WithPersistence(mgr2))
	go srv2.Serve(ln2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})

	m2.InsertEdge(1, 2)
	epoch2 := m2.Flush()
	if epoch2 >= epoch1 {
		t.Fatalf("successor epoch %d not below the first leader's %d", epoch2, epoch1)
	}

	// The follower re-bootstraps on its own; wait for the second sync,
	// then converge on the successor's state.
	deadline := time.Now().Add(15 * time.Second)
	for {
		kv := statsMap(t, rc)
		if kv["kcored_replica_connected"] == 1 && kv["kcored_replica_syncs_total"] != syncs1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-synced; stats: %v", kv)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, err := client.Int(rc.Do("CORE.WAIT", int64(epoch2), 15000)); err != nil {
		t.Fatalf("WAIT on successor: %v", err)
	}
	if srvR.Maintainer() != mR {
		t.Fatal("the re-bootstrap replaced the follower's maintainer")
	}
	if e, err := client.Int(rc.Do("CORE.EPOCH")); err != nil || e != int64(epoch2) {
		t.Fatalf("follower CORE.EPOCH after re-sync = %d, %v; want the successor's %d", e, err, epoch2)
	}
	if n, err := client.Int(rc.Do("CORE.N")); err != nil || n != 120 {
		t.Fatalf("follower CORE.N after re-sync = %d, %v; want the successor's 120", n, err)
	}
	want, _ := bz.Decompose(m2.Graph().Clone())
	if n := mR.N(); n != len(want) {
		t.Fatalf("follower N = %d, want %d", n, len(want))
	}
	got := sweepCores(t, rc, len(want))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("after re-sync: core[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
