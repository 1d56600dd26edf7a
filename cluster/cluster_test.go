package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/cluster"
	"repro/gen"
	"repro/graph"
	"repro/kcore"
	"repro/persist"
	"repro/server"
)

// shardAlgs rotates the engine across shards, so every conformance run
// exercises a heterogeneous cluster: the routing and merge layers must
// be engine-agnostic.
var shardAlgs = []kcore.Algorithm{
	kcore.ParallelOrder, kcore.SequentialOrder, kcore.Traversal, kcore.JoinEdgeSet,
}

// startShard boots one empty in-process kcored shard and returns its
// address and a stop func (also registered as cleanup).
func startShard(t *testing.T, alg kcore.Algorithm) (string, func()) {
	t.Helper()
	m := kcore.New(graph.New(0), kcore.WithAlgorithm(alg), kcore.WithWorkers(2))
	srv := server.New(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		m.Close()
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// startCluster boots `shards` heterogeneous shard servers and a router
// splitting [0, capacity) evenly across them.
func startCluster(t *testing.T, shards int, capacity int32) (*cluster.Cluster, *cluster.ShardMap) {
	t.Helper()
	addrs := make([][]string, shards)
	for i := range addrs {
		addr, _ := startShard(t, shardAlgs[i%len(shardAlgs)])
		addrs[i] = []string{addr}
	}
	m, err := cluster.EqualRanges(capacity, addrs)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Connect(m)
	t.Cleanup(func() { c.Close() })
	return c, m
}

func TestShardMapValidation(t *testing.T) {
	if _, err := cluster.NewShardMap(nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
	bad := [][]cluster.Shard{
		{{Lo: 10, Hi: 20, Leader: "a"}},                               // gap at 0
		{{Lo: 0, Hi: 10, Leader: "a"}, {Lo: 11, Hi: 20, Leader: "b"}}, // gap
		{{Lo: 0, Hi: 10, Leader: "a"}, {Lo: 5, Hi: 20, Leader: "b"}},  // overlap
		{{Lo: 0, Hi: 0, Leader: "a"}},                                 // empty range
		{{Lo: 0, Hi: 10, Leader: ""}},                                 // no leader
	}
	for i, shards := range bad {
		if _, err := cluster.NewShardMap(shards); err == nil {
			t.Fatalf("case %d: invalid shard list accepted", i)
		}
	}
	if _, err := cluster.EqualRanges(2, [][]string{{"a"}, {"b"}, {"c"}}); err == nil {
		t.Fatal("capacity below shard count accepted")
	}
}

// TestShardMapMirrors pins the deterministic local-id layout: owned ids
// and the two mirror bands partition [0, Cap) injectively, and
// MirrorOrigin inverts MirrorLocal.
func TestShardMapMirrors(t *testing.T) {
	m, err := cluster.EqualRanges(100, [][]string{{"a"}, {"b"}, {"c"}}) // ranges [0,34) [34,67) [67,100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.NumShards() {
		s := m.Shard(i)
		seen := make(map[int32]int32) // local id -> global id
		for g := int32(0); g < m.Cap(); g++ {
			l := m.LocalFor(i, g)
			if l < 0 || l >= m.Cap() {
				t.Fatalf("shard %d: global %d maps to local %d outside [0, %d)", i, g, l, m.Cap())
			}
			if prev, dup := seen[l]; dup {
				t.Fatalf("shard %d: globals %d and %d collide at local %d", i, prev, g, l)
			}
			seen[l] = g
			owned := g >= s.Lo && g < s.Hi
			if owned {
				if m.Owner(g) != i {
					t.Fatalf("Owner(%d) = %d, want %d", g, m.Owner(g), i)
				}
				if l != g-s.Lo || m.IsMirror(i, l) {
					t.Fatalf("shard %d: owned %d at local %d, IsMirror=%v", i, g, l, m.IsMirror(i, l))
				}
				if m.Global(i, l) != g {
					t.Fatalf("shard %d: Global(Local(%d)) = %d", i, g, m.Global(i, l))
				}
				if _, isMirror := m.MirrorOrigin(i, l); isMirror {
					t.Fatalf("shard %d: owned local %d reported as mirror", i, l)
				}
			} else {
				if !m.IsMirror(i, l) {
					t.Fatalf("shard %d: mirror of %d at local %d not IsMirror", i, g, l)
				}
				orig, isMirror := m.MirrorOrigin(i, l)
				if !isMirror || orig != g {
					t.Fatalf("shard %d: MirrorOrigin(%d) = (%d, %v), want (%d, true)", i, l, orig, isMirror, g)
				}
			}
		}
	}
}

// churn drives a randomized mixed insert/remove/grow stream through the
// router and the Oracle in lockstep, in pipelined per-shard bursts.
func churn(t *testing.T, c *cluster.Cluster, o *cluster.Oracle, edges []graph.Edge, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var inserted []graph.Edge
	apply := func(ins bool, batch []graph.Edge) {
		var err error
		if ins {
			err = c.InsertEdges(batch, nil)
		} else {
			err = c.RemoveEdges(batch, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range batch {
			if ins {
				o.ApplyInsert(e.U, e.V)
			} else {
				o.ApplyRemove(e.U, e.V)
			}
		}
	}
	for off := 0; off < len(edges); off += 64 {
		batch := edges[off:min(off+64, len(edges))]
		apply(true, batch)
		inserted = append(inserted, batch...)
		switch rng.Intn(4) {
		case 0: // remove a random slice of what exists (duplicates ok: drops)
			rm := make([]graph.Edge, 0, 16)
			for range 16 {
				rm = append(rm, inserted[rng.Intn(len(inserted))])
			}
			apply(false, rm)
		case 1: // remove edges that may never have existed (drop semantics)
			u := int32(rng.Intn(int(c.Map().Cap())))
			v := int32(rng.Intn(int(c.Map().Cap())))
			if u != v {
				apply(false, []graph.Edge{{U: u, V: v}})
			}
		case 2: // explicit growth
			n := int32(rng.Intn(int(c.Map().Cap()))) + 1
			if _, err := c.Grow(n); err != nil {
				t.Fatal(err)
			}
			o.Grow(n)
		}
	}
}

// verify holds every routed read byte-equal to the Oracle.
func verify(t *testing.T, c *cluster.Cluster, o *cluster.Oracle) {
	t.Helper()
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.N() != o.N() {
		t.Fatalf("N = %d, oracle %d", c.N(), o.N())
	}
	want := o.Cores()
	ids := make([]int32, o.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	// Sweep in shuffled order so per-shard grouping and position
	// scattering are both exercised.
	rand.New(rand.NewSource(9)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	got, err := c.MGet(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ids {
		if got[i] != want[g] {
			t.Fatalf("MGET core(%d) = %d, oracle %d", g, got[i], want[g])
		}
	}
	for _, g := range []int32{0, int32(o.N()) - 1, int32(o.N()) / 2} {
		if g < 0 {
			continue
		}
		k, err := c.Get(g)
		if err != nil {
			t.Fatal(err)
		}
		if k != want[g] {
			t.Fatalf("GET core(%d) = %d, oracle %d", g, k, want[g])
		}
	}

	hist, err := c.Hist()
	if err != nil {
		t.Fatal(err)
	}
	wantHist := o.Hist()
	if len(hist) != len(wantHist) {
		t.Fatalf("Hist has %d bins, oracle %d (%v vs %v)", len(hist), len(wantHist), hist, wantHist)
	}
	for k := range wantHist {
		if hist[k] != wantHist[k] {
			t.Fatalf("Hist[%d] = %d, oracle %d", k, hist[k], wantHist[k])
		}
	}

	mx, err := c.MaxCore()
	if err != nil || mx != o.MaxCore() {
		t.Fatalf("MaxCore = %d, %v; oracle %d", mx, err, o.MaxCore())
	}
	deg, err := c.Degeneracy()
	if err != nil || deg != mx {
		t.Fatalf("Degeneracy = %d, %v; want %d", deg, err, mx)
	}
	for k := int32(0); k <= mx+1; k++ {
		n, err := c.KVert(k)
		if err != nil || n != o.KVert(k) {
			t.Fatalf("KVert(%d) = %d, %v; oracle %d", k, n, err, o.KVert(k))
		}
	}
	if err := c.Check(); err != nil {
		t.Fatalf("cluster check: %v", err)
	}
}

// TestClusterConformance is the cluster's executable contract:
// randomized mixed churn through the router on 2, 3 and 4 heterogeneous
// shards, at zero and substantial cross-shard edge fractions, then
// every read path — full MGET sweep, point gets, and all scatter-gather
// aggregates — byte-equal to the Oracle. At cross fraction 0 the Oracle
// itself must equal a fresh single-node decomposition of the global
// graph, closing the loop to ground truth.
func TestClusterConformance(t *testing.T) {
	const capacity = 600
	for _, shards := range []int{2, 3, 4} {
		for _, cross := range []float64{0, 0.35} {
			t.Run(fmt.Sprintf("shards=%d,cross=%v", shards, cross), func(t *testing.T) {
				t.Parallel()
				c, m := startCluster(t, shards, capacity)
				o := cluster.NewOracle(m)
				seed := int64(shards)*100 + int64(cross*100)
				edges := gen.CrossRangeEdges(capacity, shards, 1500, cross, seed)
				churn(t, c, o, edges, seed+1)
				verify(t, c, o)

				if cross == 0 {
					global := o.GlobalCores()
					for g, k := range o.Cores() {
						if k != global[g] {
							t.Fatalf("cross=0: oracle core(%d) = %d, global ground truth %d", g, k, global[g])
						}
					}
				}

				// Stats reaches every shard and reports sane pool counters.
				stats, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if len(stats) != shards {
					t.Fatalf("Stats has %d shards, want %d", len(stats), shards)
				}
				for _, st := range stats {
					if st.Server["n"] == "" {
						t.Fatalf("shard %d stats missing n: %v", st.Shard, st.Server)
					}
					if st.Pool.Dials == 0 {
						t.Fatalf("shard %d pool never dialed", st.Shard)
					}
				}
			})
		}
	}
}

// TestClusterRecover pins router bootstrap over existing shard state: a
// second router with no write history recovers the universe high-water
// mark from the shards' owned bands.
func TestClusterRecover(t *testing.T) {
	c, m := startCluster(t, 3, 300)
	o := cluster.NewOracle(m)
	churn(t, c, o, gen.CrossRangeEdges(300, 3, 400, 0.3, 5), 6)
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	fresh := cluster.Connect(m)
	defer fresh.Close()
	if fresh.N() != 0 {
		t.Fatalf("fresh router N = %d before Recover", fresh.N())
	}
	if err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	// Recovery is a lower bound equal to the true N unless the top of the
	// universe is all holes (ids only ever named, never materialized on
	// their owner); churn materializes every owned band via Grow, so here
	// it is exact.
	if _, err := c.Grow(int32(c.N())); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	if fresh.N() != c.N() {
		t.Fatalf("recovered N = %d, want %d", fresh.N(), c.N())
	}
}

// TestShardOutage pins failure isolation: with one shard down, ops
// confined to live ranges keep serving, ops touching the dead range
// fail fast with a typed ShardError naming the shard, and global
// aggregates report the outage instead of a partial answer.
func TestShardOutage(t *testing.T) {
	const capacity = 200
	addr0, _ := startShard(t, kcore.ParallelOrder)
	addr1, stop1 := startShard(t, kcore.ParallelOrder)
	m, err := cluster.EqualRanges(capacity, [][]string{{addr0}, {addr1}}) // [0,100) [100,200)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Connect(m)
	defer c.Close()

	if err := c.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 150, V: 151}}, nil); err != nil {
		t.Fatal(err)
	}
	stop1()

	// Shard 0's range keeps serving: reads and writes.
	if k, err := c.Get(1); err != nil || k != 1 {
		t.Fatalf("Get(1) after outage = %d, %v", k, err)
	}
	if err := c.InsertEdges([]graph.Edge{{U: 3, V: 4}}, nil); err != nil {
		t.Fatalf("insert into live range: %v", err)
	}

	// The dead range fails fast and typed.
	wantShardErr := func(err error, op string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error with shard 1 down", op)
		}
		se, ok := cluster.AsShardError(err)
		if !ok {
			t.Fatalf("%s: error %v is not a ShardError", op, err)
		}
		if se.Shard != 1 || se.Addr != addr1 {
			t.Fatalf("%s: ShardError names shard %d (%s), want 1 (%s)", op, se.Shard, se.Addr, addr1)
		}
	}
	_, err = c.Get(150)
	wantShardErr(err, "Get(150)")
	err = c.InsertEdges([]graph.Edge{{U: 150, V: 152}}, nil)
	wantShardErr(err, "insert into dead range")
	err = c.InsertEdges([]graph.Edge{{U: 5, V: 150}}, nil)
	wantShardErr(err, "cross insert touching dead range")
	_, err = c.Hist()
	wantShardErr(err, "Hist")
	err = c.Check()
	wantShardErr(err, "Check")

	// And still: the live range is unaffected afterwards.
	if k, err := c.Get(3); err != nil || k != 1 {
		t.Fatalf("Get(3) = %d, %v", k, err)
	}
}

// startReplicatedShard boots a persistent leader plus one follower and
// returns (leaderAddr, replicaAddr).
func startReplicatedShard(t *testing.T) (string, string) {
	t.Helper()
	mgr, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(graph.New(0), kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); m.Close() })
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	lsrv := server.New(m, server.WithPersistence(mgr))
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lsrv.Serve(lln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		lsrv.Shutdown(ctx)
	})

	rsrv := server.New(kcore.New(graph.New(0), kcore.WithWorkers(2)))
	rep := server.NewReplica(rsrv, lln.Addr().String(), server.ReplicaOptions{Workers: 2})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Maintainer().Close() })
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rsrv.Shutdown(ctx)
	})
	t.Cleanup(rep.Close)
	rep.Start()
	go rsrv.Serve(rln)
	return lln.Addr().String(), rln.Addr().String()
}

// TestSessionReadYourWrites runs a session over a replicated 2-shard
// cluster: every write captures a per-shard epoch vector, every read is
// gated on the shard's replica, so reads through the session are never
// stale with respect to the session's own writes — and after Wait, even
// fresh connections to the replicas observe them.
func TestSessionReadYourWrites(t *testing.T) {
	const capacity = 200
	l0, r0 := startReplicatedShard(t)
	l1, r1 := startReplicatedShard(t)
	m, err := cluster.EqualRanges(capacity, [][]string{{l0, r0}, {l1, r1}})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Connect(m)
	defer c.Close()
	o := cluster.NewOracle(m)

	s := c.NewSession()
	defer s.Close()
	if s.ReadAddr(0) != r0 || s.ReadAddr(1) != r1 {
		t.Fatalf("session reads pinned to %s/%s, want replicas %s/%s",
			s.ReadAddr(0), s.ReadAddr(1), r0, r1)
	}

	rng := rand.New(rand.NewSource(77))
	edges := gen.CrossRangeEdges(capacity, 2, 600, 0.4, 78)
	for off := 0; off < len(edges); off += 40 {
		batch := edges[off:min(off+40, len(edges))]
		if err := s.InsertEdges(batch); err != nil {
			t.Fatal(err)
		}
		for _, e := range batch {
			o.ApplyInsert(e.U, e.V)
		}
		// Read endpoints the batch just touched — through the session they
		// must already reflect it, replica lag notwithstanding.
		want := o.Cores()
		probe := make([]int32, 0, 8)
		for range 8 {
			probe = append(probe, batch[rng.Intn(len(batch))].U)
		}
		got, err := s.MGet(probe)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range probe {
			if got[i] != want[g] {
				t.Fatalf("session read core(%d) = %d, oracle %d (stale replica read?)", g, got[i], want[g])
			}
		}
	}

	// Cross-shard barrier: after Wait, a *fresh* plain connection to each
	// replica observes every session write.
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	want := o.Cores()
	for i, raddr := range []string{r0, r1} {
		rc, err := client.Dial(raddr, client.WithDialTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		sh := m.Shard(i)
		for g := sh.Lo; g < min(sh.Hi, int32(o.N())); g++ {
			k, err := client.Int(rc.Do("CORE.GET", m.Local(i, g)))
			if err != nil {
				t.Fatal(err)
			}
			if int32(k) != want[g] {
				t.Fatalf("replica %d core(%d) = %d after Wait, oracle %d", i, g, k, want[g])
			}
		}
	}
}
