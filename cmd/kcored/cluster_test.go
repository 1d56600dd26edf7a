package main

import (
	"math/rand"
	"testing"

	"repro/cluster"
	"repro/gen"
	"repro/graph"
)

// TestClusterRoutedChurn spawns three kcored shards per engine, churns
// mixed traffic through the routing client — routed inserts with a 20 %
// share of cross-shard edges, removals of inserted (and already removed)
// edges, explicit growth — while mirroring every acked op into
// cluster.Oracle, then holds every routed read to the Oracle: the full
// MGet sweep, N, Hist, MaxCore and KVert, and CORE.CHECK on every shard.
func TestClusterRoutedChurn(t *testing.T) {
	skipShort(t)
	for _, alg := range []string{"parallel", "seq", "traversal", "jes"} {
		t.Run(alg, func(t *testing.T) { clusterDrill(t, alg) })
	}
}

func clusterDrill(t *testing.T, alg string) {
	const (
		shards   = 3
		capacity = 4096
		bursts   = 300
		batch    = 64
		seed     = 1
	)
	addrs := make([][]string, shards)
	for i := range addrs {
		addrs[i] = []string{freeAddr(t)}
		spawn(t, addrs[i][0], "-alg", alg)
	}
	m, err := cluster.EqualRanges(capacity, addrs)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Connect(m)
	t.Cleanup(func() { c.Close() })
	o := cluster.NewOracle(m)

	// Every routed call returns only after all touched shards acked, so
	// router and Oracle stay in lockstep.
	rng := rand.New(rand.NewSource(seed))
	pool := gen.CrossRangeEdges(capacity, shards, bursts*batch, 0.2, seed+1)
	for b := 0; b < bursts; b++ {
		chunk := pool[b*batch : (b+1)*batch]
		if err := c.InsertEdges(chunk); err != nil {
			t.Fatalf("routed insert: %v", err)
		}
		for _, e := range chunk {
			o.ApplyInsert(e.U, e.V)
		}
		switch rng.Intn(4) {
		case 0: // remove a random sample of what was inserted
			rm := make([]graph.Edge, batch/4)
			for i := range rm {
				rm[i] = pool[rng.Intn((b+1)*batch)]
			}
			if err := c.RemoveEdges(rm); err != nil {
				t.Fatalf("routed remove: %v", err)
			}
			for _, e := range rm {
				o.ApplyRemove(e.U, e.V)
			}
		case 1: // explicit growth
			n := int32(rng.Intn(capacity)) + 1
			if _, err := c.Grow(n); err != nil {
				t.Fatalf("routed grow: %v", err)
			}
			o.Grow(n)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatalf("cluster flush: %v", err)
	}
	t.Logf("%d shards (alg=%s): churned %d bursts (oracle: n=%d)", shards, alg, bursts, o.N())

	want := o.Cores()
	ids := make([]int32, o.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	got, err := c.MGet(ids)
	if err != nil {
		t.Fatalf("routed sweep: %v", err)
	}
	for g := range ids {
		if got[g] != want[g] {
			t.Fatalf("routed core(%d) = %d, oracle %d", g, got[g], want[g])
		}
	}
	if c.N() != o.N() {
		t.Fatalf("cluster N = %d, oracle %d", c.N(), o.N())
	}
	hist, err := c.Hist()
	if err != nil {
		t.Fatalf("routed hist: %v", err)
	}
	wantHist := o.Hist()
	if len(hist) != len(wantHist) {
		t.Fatalf("hist has %d bins, oracle %d", len(hist), len(wantHist))
	}
	for k := range hist {
		if hist[k] != wantHist[k] {
			t.Fatalf("hist[%d] = %d, oracle %d", k, hist[k], wantHist[k])
		}
	}
	mx, err := c.MaxCore()
	if err != nil || mx != o.MaxCore() {
		t.Fatalf("maxcore = %d, %v; oracle %d", mx, err, o.MaxCore())
	}
	for k := int32(-1); k <= mx+1; k++ {
		if n, err := c.KVert(k); err != nil || n != o.KVert(k) {
			t.Fatalf("kvert(%d) = %d, %v; oracle %d", k, n, err, o.KVert(k))
		}
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}
