package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/cluster"
	"repro/gen"
	"repro/graph"
	"repro/kcore"
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
	for _, group := range [][]string{{}, {"a", "b"}} {
		if _, err := cluster.EqualRanges(10, [][]string{{"x"}, group}); err == nil {
			t.Fatalf("address group %q accepted: a shard is its leader alone", group)
		}
	}
}

// TestShardMapMirrors pins the deterministic local-id layout: owned ids
// and the two mirror bands partition [0, Cap) injectively, and
// MirrorOrigin inverts mirrorLocal.
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
func churn(t *testing.T, c *cluster.Cluster, m *cluster.ShardMap, o *cluster.Oracle, edges []graph.Edge, seed int64) {
	t.Helper()
	capacity := int(m.Cap())
	rng := rand.New(rand.NewSource(seed))
	var inserted []graph.Edge
	apply := func(ins bool, batch []graph.Edge) {
		var err error
		if ins {
			err = c.InsertEdges(batch)
		} else {
			err = c.RemoveEdges(batch)
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
			u := int32(rng.Intn(capacity))
			v := int32(rng.Intn(capacity))
			if u != v {
				apply(false, []graph.Edge{{U: u, V: v}})
			}
		case 2: // explicit growth
			n := int32(rng.Intn(capacity)) + 1
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
		k, err := c.MGet([]int32{g})
		if err != nil {
			t.Fatal(err)
		}
		if k[0] != want[g] {
			t.Fatalf("MGET core(%d) = %d, oracle %d", g, k[0], want[g])
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
	for k := int32(-1); k <= mx+1; k++ {
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
				churn(t, c, m, o, edges, seed+1)
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
					if _, ok := st.Server["kcored_vertices"]; !ok {
						t.Fatalf("shard %d stats missing kcored_vertices: %v", st.Shard, st.Server)
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
	churn(t, c, m, o, gen.CrossRangeEdges(300, 3, 400, 0.3, 5), 6)
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
	if fresh.N() != c.N() || fresh.N() != o.N() {
		t.Fatalf("recovered N = %d, want %d (oracle %d)", fresh.N(), c.N(), o.N())
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

	if err := c.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 150, V: 151}}); err != nil {
		t.Fatal(err)
	}
	stop1()

	// Shard 0's range keeps serving: reads and writes.
	if k, err := c.MGet([]int32{1}); err != nil || k[0] != 1 {
		t.Fatalf("MGet(1) after outage = %v, %v", k, err)
	}
	if err := c.InsertEdges([]graph.Edge{{U: 3, V: 4}}); err != nil {
		t.Fatalf("insert into live range: %v", err)
	}

	// The dead range fails fast and typed.
	wantShardErr := func(err error, op string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error with shard 1 down", op)
		}
		var se *cluster.ShardError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v is not a ShardError", op, err)
		}
		if se.Shard != 1 || se.Addr != addr1 {
			t.Fatalf("%s: ShardError names shard %d (%s), want 1 (%s)", op, se.Shard, se.Addr, addr1)
		}
	}
	_, err = c.MGet([]int32{150})
	wantShardErr(err, "MGet(150)")
	err = c.InsertEdges([]graph.Edge{{U: 150, V: 152}})
	wantShardErr(err, "insert into dead range")
	err = c.InsertEdges([]graph.Edge{{U: 5, V: 150}})
	wantShardErr(err, "cross insert touching dead range")
	_, err = c.Hist()
	wantShardErr(err, "Hist")
	err = c.Check()
	wantShardErr(err, "Check")

	// And still: the live range is unaffected afterwards.
	if k, err := c.MGet([]int32{3}); err != nil || k[0] != 1 {
		t.Fatalf("MGet(3) = %v, %v", k, err)
	}
}

// TestMGetRejectsLongReply pins MGet against a shard that answers more
// core numbers than it was asked for: the call fails with a ShardError
// naming that shard, where indexing positions past the shard's share
// would panic.
func TestMGetRejectsLongReply(t *testing.T) {
	m, err := cluster.EqualRanges(200, [][]string{{startCannedShard(t, 0)}, {startCannedShard(t, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Connect(m)
	defer c.Close()
	_, err = c.MGet([]int32{1, 150, 2, 151})
	var se *cluster.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("MGet over a shard with a long reply: %v, want a ShardError for shard 1", err)
	}
	if got, err := c.MGet([]int32{3, 1}); err != nil || got[0] != 3 || got[1] != 1 {
		t.Fatalf("MGet on the sound shard alone = %v, %v", got, err)
	}
}

// TestRoutedWriteSendsOnlyWrites pins a routed write's wire traffic: each
// shard it touches receives exactly its share as chunked CORE.INSERT or
// CORE.REMOVE commands, one per ChunkPairs pairs, and no other command.
func TestRoutedWriteSendsOnlyWrites(t *testing.T) {
	const capacity = 200 // shard 0 owns [0, 100), shard 1 [100, 200)
	c, _ := startCluster(t, 2, capacity)
	c.DisableHealthPings() // a PING is a read command too
	type families struct{ read, write float64 }
	counts := func() [2]families {
		t.Helper()
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var out [2]families
		for _, st := range stats {
			out[st.Shard] = families{
				read:  st.Server[`kcored_commands_total{family="read"}`],
				write: st.Server[`kcored_commands_total{family="write"}`],
			}
		}
		return out
	}

	// More pairs than one command carries, all owned by shard 0.
	var big []graph.Edge
	for u := int32(0); len(big) <= cluster.ChunkPairs; u++ {
		for v := u + 1; v < 100 && len(big) <= cluster.ChunkPairs; v++ {
			big = append(big, graph.Edge{U: u, V: v})
		}
	}
	writes := []struct {
		insert bool
		edges  []graph.Edge
		chunks [2]float64 // commands each shard must receive
	}{
		{true, []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}, [2]float64{1, 0}},
		{true, []graph.Edge{{U: 101, V: 102}}, [2]float64{0, 1}},
		{true, []graph.Edge{{U: 5, V: 150}, {U: 6, V: 7}}, [2]float64{1, 1}}, // a cross-shard edge lands on both
		{false, []graph.Edge{{U: 1, V: 2}, {U: 101, V: 102}}, [2]float64{1, 1}},
		{false, []graph.Edge{{U: 150, V: 5}}, [2]float64{1, 1}},
		{true, big, [2]float64{2, 0}},
		{false, big, [2]float64{2, 0}},
	}
	before := counts()
	var want [2]float64
	for i, w := range writes {
		var err error
		if w.insert {
			err = c.InsertEdges(w.edges)
		} else {
			err = c.RemoveEdges(w.edges)
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want[0] += w.chunks[0]
		want[1] += w.chunks[1]
	}
	after := counts()
	for i := range after {
		if d := after[i].read - before[i].read; d != 0 {
			t.Errorf("shard %d: %d routed writes moved the read-command count by %v, want 0", i, len(writes), d)
		}
		if d := after[i].write - before[i].write; d != want[i] {
			t.Errorf("shard %d: write-command count rose by %v, want %v (one per chunk)", i, d, want[i])
		}
	}
}

// TestConcurrentRoutedCalls routes writes and MGets from several
// goroutines through one router at once, so that calls in flight together
// each hold a pooled scratch of their own. Caller g writes only edges
// among the vertices v with v mod callers = g, so the cores of those
// vertices follow from its own writes alone: after every acked write it
// reads them all back, in a fresh order, and holds them to an Oracle of
// its own writes. At the end every served core is held to one Oracle of
// every caller's writes.
func TestConcurrentRoutedCalls(t *testing.T) {
	const (
		capacity = 600 // shard 0 owns [0, 300), shard 1 [300, 600)
		callers  = 6
		rounds   = 40
	)
	c, m := startCluster(t, 2, capacity)
	type write struct {
		insert bool
		edges  []graph.Edge
	}
	logs := make([][]write, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			o := cluster.NewOracle(m)
			var own []int32
			for v := int32(g); v < capacity; v += callers {
				own = append(own, v)
			}
			var live []graph.Edge
			for r := range rounds {
				w := write{insert: r%3 != 2 || len(live) == 0}
				if w.insert {
					for range 16 {
						if u, v := own[rng.Intn(len(own))], own[rng.Intn(len(own))]; u != v {
							w.edges = append(w.edges, graph.Edge{U: u, V: v})
						}
					}
					live = append(live, w.edges...)
				} else {
					for range 8 {
						w.edges = append(w.edges, live[rng.Intn(len(live))])
					}
				}
				var err error
				if w.insert {
					err = c.InsertEdges(w.edges)
				} else {
					err = c.RemoveEdges(w.edges)
				}
				if err != nil {
					t.Errorf("caller %d, round %d: %v", g, r, err)
					return
				}
				for _, e := range w.edges {
					if w.insert {
						o.ApplyInsert(e.U, e.V)
					} else {
						o.ApplyRemove(e.U, e.V)
					}
				}
				logs[g] = append(logs[g], w)

				rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
				got, err := c.MGet(own)
				if err != nil {
					t.Errorf("caller %d, round %d: MGet: %v", g, r, err)
					return
				}
				want := o.Cores()
				for j, v := range own {
					var k int32
					if int(v) < len(want) {
						k = want[v]
					}
					if got[j] != k {
						t.Errorf("caller %d, round %d: core(%d) = %d, its oracle %d", g, r, v, got[j], k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	o := cluster.NewOracle(m)
	for _, log := range logs {
		for _, w := range log {
			for _, e := range w.edges {
				if w.insert {
					o.ApplyInsert(e.U, e.V)
				} else {
					o.ApplyRemove(e.U, e.V)
				}
			}
		}
	}
	verify(t, c, o)
}
