package client_test

import (
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/kcore"
	"repro/persist"
	"repro/server"
)

// startReplicated brings up a persistent leader and one follower,
// returning both addresses.
func startReplicated(t *testing.T) (leaderAddr, replicaAddr string) {
	t.Helper()
	mgr, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(gen.ErdosRenyi(100, 300, 13), kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); m.Close() })
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	lsrv := server.New(m, server.WithPersistence(mgr))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lsrv.Serve(ln)
	t.Cleanup(func() { lsrv.Close() })

	rsrv := server.New(kcore.New(graph.New(0)))
	rep := server.NewReplica(rsrv, ln.Addr().String(), server.ReplicaOptions{Engine: []kcore.Option{kcore.WithWorkers(2)}})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Maintainer().Close() })
	t.Cleanup(func() { rsrv.Close() })
	t.Cleanup(rep.Close)
	rep.Start()
	go rsrv.Serve(rln)
	return ln.Addr().String(), rln.Addr().String()
}

// TestReplicaSessionReadYourWrites: the Write→Read recipe observes its
// own writes on the follower, every round.
func TestReplicaSessionReadYourWrites(t *testing.T) {
	leaderAddr, replicaAddr := startReplicated(t)
	lc, err := client.Dial(leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	rc, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	s := client.NewReplicaSession(lc, rc)
	s.WaitTimeout = 15 * time.Second
	for i := 0; i < 20; i++ {
		u, v := 500+2*i, 501+2*i
		if _, err := s.Write("CORE.INSERT", u, v); err != nil {
			t.Fatalf("round %d Write: %v", i, err)
		}
		if s.Epoch() == 0 {
			t.Fatalf("round %d: session captured no epoch", i)
		}
		k, err := client.Int(s.Read("CORE.GET", u))
		if err != nil {
			t.Fatalf("round %d Read: %v", i, err)
		}
		if k < 1 {
			t.Fatalf("round %d: replica read core[%d] = %d — stale", i, u, k)
		}
		// A second read with no intervening write skips the WAIT gate and
		// still answers consistently.
		if k2, err := client.Int(s.Read("CORE.GET", v)); err != nil || k2 < 1 {
			t.Fatalf("round %d ungated Read = %d, %v", i, k2, err)
		}
	}
}
