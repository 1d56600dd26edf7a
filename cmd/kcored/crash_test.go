package main

// Crash and replication drills against real kcored processes: kill -9 a
// durable node mid-burst or between bursts, recover, restart, and hold
// every served core number to a BZ decomposition of the acked edges.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/graph"
	"repro/internal/bz"
	"repro/persist"
)

// TestCrashRecoveryKillMidBurst drives acked bursts into a durable
// kcored, kill -9s it with a flushed, never-awaited burst in flight, and
// checks the surviving directory two ways:
//
//  1. Recovery honesty — persist.Recover yields exactly the acked edges
//     plus a send-order prefix of the doomed burst: acked writes MUST
//     survive, and nothing else may appear.
//  2. Serving honesty — a kcored restarted on the directory serves a BZ
//     decomposition of that edge set over CORE.MGET and passes
//     CORE.CHECK.
func TestCrashRecoveryKillMidBurst(t *testing.T) {
	skipShort(t)
	dir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	srv := spawn(t, addr, durable(dir)...)
	c := dial(t, addr)

	// 30 bursts of 40 ops cross the 400-op checkpoint threshold more
	// than once, so the kill lands on a directory with generational
	// history, not a single pristine segment.
	const n = 2000
	rng := rand.New(rand.NewSource(99))
	mirror := graph.New(n)
	ackedBursts(t, c, mirror, rng, 30, 40)

	// The doomed burst: distinct inserts of edges the mirror lacks,
	// never awaited. Its first quarter is flushed; once the log holds a
	// record past the acked ones, the rest is flushed and the kill races
	// the server mid-application — so some doomed inserts land and some
	// do not.
	probe := dial(t, addr)
	logged := func() int64 {
		st, err := client.StringMap(probe.Do("CORE.STATS"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := strconv.ParseInt(st["persist_records"], 10, 64)
		if err != nil {
			t.Fatalf("persist_records: %v", err)
		}
		return r
	}
	ackedRecords := logged()
	var doomed []graph.Edge
	isDoomed := make(map[graph.Edge]bool)
	for len(doomed) < 200 {
		e := graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}.Norm()
		if e.U == e.V || mirror.HasEdge(e.U, e.V) || isDoomed[e] {
			continue
		}
		isDoomed[e] = true
		doomed = append(doomed, e)
		if err := c.Send("CORE.INSERT", int64(e.U), int64(e.V)); err != nil {
			t.Fatal(err)
		}
		if len(doomed) == 50 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); logged() == ackedRecords; {
				if time.Now().After(deadline) {
					t.Fatal("the first doomed inserts never reached the log")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	c.Flush()
	srv.stop(syscall.SIGKILL)

	res, err := persist.Recover(dir)
	if err != nil {
		t.Fatalf("Recover after kill -9: %v", err)
	}
	if res.Graph == nil {
		t.Fatal("no recoverable state after kill -9")
	}
	g := res.Graph
	t.Logf("recovered gen=%d n=%d m=%d tail=%d records (%d edges) torn=%d segments=%d",
		res.Gen, g.N(), g.M(), res.TailRecords, res.TailEdges, res.TornBytes, res.Segments)
	if res.Gen < 2 {
		t.Errorf("gen = %d: the bursts never crossed a log rotation; raise the op count", res.Gen)
	}
	has := func(e graph.Edge) bool {
		return int(max(e.U, e.V)) < g.N() && g.HasEdge(e.U, e.V)
	}
	for _, e := range mirror.Edges() {
		if !has(e) {
			t.Fatalf("acked edge (%d,%d) lost by the crash", e.U, e.V)
		}
	}
	for _, e := range g.Edges() {
		if !mirror.HasEdge(e.U, e.V) && !isDoomed[e] {
			t.Fatalf("recovered edge (%d,%d) was never sent", e.U, e.V)
		}
	}
	// One connection orders the op stream, and fsync=always logs every
	// batch before it is applied, so the log holds all acked ops and
	// then a prefix of the doomed burst: recovered = acked ∪ doomed[:j].
	j := 0
	for j < len(doomed) && has(doomed[j]) {
		j++
	}
	for i := j; i < len(doomed); i++ {
		if has(doomed[i]) {
			t.Fatalf("doomed[%d] (%d,%d) recovered but doomed[%d] lost: not a prefix of the doomed burst",
				i, doomed[i].U, doomed[i].V, j)
		}
	}
	t.Logf("%d of %d doomed inserts landed before the kill", j, len(doomed))

	want, _ := bz.Decompose(g)
	spawn(t, addr, durable(dir)...)
	c2 := dial(t, addr)
	if err := sweep(c2, want); err != nil {
		t.Fatalf("restarted node: %v", err)
	}
	coreCheck(t, "restarted node", c2)
}

// TestReplicaResyncAfterLeaderKill runs a durable leader and a follower,
// kill -9s the leader between acked bursts (nothing unacked in flight,
// so its log holds exactly the mirror), restarts it on the same
// directory and address (promote-by-restart), drives more acked bursts,
// and waits for the follower — which must notice the dead leader,
// reconnect and re-bootstrap on its own — to serve a BZ decomposition
// of the mirror. The follower must refuse writes, and both nodes must
// pass CORE.CHECK.
func TestReplicaResyncAfterLeaderKill(t *testing.T) {
	skipShort(t)
	dir := filepath.Join(t.TempDir(), "data")
	leaderAddr, followerAddr := freeAddr(t), freeAddr(t)
	// -n fixes the universe, so N is the mirror's on every node.
	const n = 3000
	leader := spawn(t, leaderAddr, append(durable(dir), "-n", fmt.Sprint(n))...)
	spawn(t, followerAddr, "-replica-of", leaderAddr)

	rng := rand.New(rand.NewSource(1))
	mirror := graph.New(n)
	ackedBursts(t, dial(t, leaderAddr), mirror, rng, 20, 64)
	leader.stop(syscall.SIGKILL)
	t.Logf("killed the leader after 20 acked bursts (mirror: n=%d m=%d)", mirror.N(), mirror.M())

	spawn(t, leaderAddr, durable(dir)...)
	lc := dial(t, leaderAddr)
	ackedBursts(t, lc, mirror, rng, 20, 64)
	if _, err := client.Int(lc.Do("CORE.FLUSH")); err != nil {
		t.Fatal(err)
	}
	want, _ := bz.Decompose(mirror)

	// The follower converges on its own schedule (reconnect backoff,
	// re-bootstrap): sweep it until it matches.
	fc := dial(t, followerAddr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := sweep(fc, want)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			st, _ := client.StringMap(fc.Do("CORE.STATS"))
			t.Fatalf("follower never converged on the successor's state: %v; stats: %v", err, st)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if _, err := fc.Do("CORE.INSERT", 1, 2); err == nil || !strings.Contains(err.Error(), "READONLY") {
		t.Fatalf("follower accepted a write: %v", err)
	}
	coreCheck(t, "leader", lc)
	coreCheck(t, "follower", fc)
}

// TestGracefulRestartNoTail: SIGTERM takes a final checkpoint, so the
// next recovery replays nothing.
func TestGracefulRestartNoTail(t *testing.T) {
	skipShort(t)
	dir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	srv := spawn(t, addr, durable(dir)...)
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		if _, err := client.Int(c.Do("CORE.INSERT", int64(i), int64(i+100))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := srv.stop(syscall.SIGTERM); err != nil {
		t.Fatalf("kcored exit after SIGTERM: %v", err)
	}
	res, err := persist.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.M() != 50 {
		t.Fatalf("graceful shutdown lost state: %+v", res)
	}
	if res.TailRecords != 0 || res.TornBytes != 0 {
		t.Fatalf("graceful shutdown left a log tail: %+v", res)
	}
}

// TestLoadImportCheckpointsImmediately: -load with a fresh -dir imports
// the edge list and checkpoints before serving; a second start with a
// (bogus) -load must prefer the durable state.
func TestLoadImportCheckpointsImmediately(t *testing.T) {
	skipShort(t)
	dir := filepath.Join(t.TempDir(), "data")
	edgefile := filepath.Join(t.TempDir(), "edges.txt")
	content := ""
	for i := 0; i < 40; i++ {
		content += fmt.Sprintf("%d %d\n", i, i+40)
	}
	if err := os.WriteFile(edgefile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	srv := spawn(t, addr, append(durable(dir), "-load", edgefile)...)
	// The import must already be durable — even a kill -9 right now
	// keeps it.
	srv.stop(syscall.SIGKILL)
	res, err := persist.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.M() != 40 {
		t.Fatalf("-load import not checkpointed before serving: %+v", res)
	}

	// Restart pointing -load at garbage: durable state must win.
	spawn(t, addr, append(durable(dir), "-load", filepath.Join(t.TempDir(), "missing.txt"))...)
	c := dial(t, addr)
	if m, err := client.Int(c.Do("CORE.GET", int64(0))); err != nil || m != 1 {
		t.Fatalf("recovered state not served (core[0]=%d, %v)", m, err)
	}
}
