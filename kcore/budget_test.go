package kcore

import (
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// insertBudget is the rebuild budget internal/pcore gives an insertion batch
// on a graph of n vertices and m edges: max((n+m)/8, 1<<14), in |V+|.
func insertBudget(n int, m int64) int64 { return max((int64(n)+m)/8, 1<<14) }

// shardPrefill is what shard 0 of a 2-shard router over 2^15 ids receives
// while the router prefills 100k edges, 10% of them cross-shard, in 16 384-edge
// writes: the edges with an endpoint in the owned band [0, 2^14), whose ids
// shard 0 keeps (a remote endpoint above the band mirrors to itself). That
// is about 9k edges a write, and the sparse graph forms its 3-core and its
// 4-core along the way — the batches whose Σ|V+| ran to 187k and 260k
// before insertion batches had a budget.
func shardPrefill() (n int, batches [][]graph.Edge) {
	const capacity, chunk = 1 << 15, 1 << 14
	routed := gen.CrossRangeEdges(capacity, 2, 100_000, 0.10, 1)
	rand.New(rand.NewSource(1)).Shuffle(len(routed), func(i, j int) {
		routed[i], routed[j] = routed[j], routed[i]
	})
	for lo := 0; lo < len(routed); lo += chunk {
		var b []graph.Edge
		for _, e := range routed[lo:min(lo+chunk, len(routed))] {
			if min(e.U, e.V) < capacity/2 {
				b = append(b, e)
			}
		}
		batches = append(batches, b)
	}
	return capacity, batches
}

// Building a sparse graph through the maintainer stays linear: an insertion
// batch traverses at most its budget before one rebuild finishes it. With one
// worker the total is exact, so everything before the last traversed edge
// fits the budget. After every batch the invariants hold and the served cores
// — patched from the batch's changed vertices, rebuilt ones included — equal
// a fresh decomposition.
func TestSparsePrefillBoundsTraversal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^15-vertex graph batch by batch; make engine-flake runs it under -race")
	}
	n, batches := shardPrefill()
	for _, workers := range []int{1, 2} {
		m := New(graph.New(n), WithAlgorithm(ParallelOrder), WithWorkers(workers))
		mirror := graph.New(n)
		rebuilds := int64(0)
		for bi, b := range batches {
			budget := insertBudget(m.N(), m.Graph().M())
			res := m.InsertEdges(b)
			applied := 0
			for _, e := range b {
				if mirror.AddEdge(e.U, e.V) {
					applied++
				}
			}
			if res.Applied != applied {
				t.Fatalf("w=%d batch %d: Applied %d, want %d", workers, bi, res.Applied, applied)
			}
			rebuilds += res.Contention.Rebuilds
			if res.Contention.Rebuilds > 0 {
				// A batch that finished with a rebuild leaves BZ's
				// peeling order as its k-order; m.Check below counts
				// every d⁺out over it.
				var err error
				m.barrier(func() { err = m.eng.impl.(*parallelOrderEngine).CheckPeelOrder() })
				if err != nil {
					t.Fatalf("w=%d batch %d, rebuilt: %v", workers, bi, err)
				}
			}
			if workers == 1 && len(res.VPlusSizes) > 0 {
				sum := int64(0)
				for _, s := range res.VPlusSizes {
					sum += int64(s)
				}
				last := int64(res.VPlusSizes[len(res.VPlusSizes)-1])
				if sum-last > budget {
					t.Fatalf("batch %d: Σ|V+| = %d (last edge %d) over a budget of %d", bi, sum, last, budget)
				}
				if res.Contention.Rebuilds == 0 && sum > budget {
					t.Fatalf("batch %d: Σ|V+| = %d over a budget of %d, and no rebuild", bi, sum, budget)
				}
			}
			if err := m.Check(); err != nil {
				t.Fatalf("w=%d batch %d: %v", workers, bi, err)
			}
			truth, _ := bz.Decompose(mirror)
			got := m.CoreNumbers()
			for v := range truth {
				if got[v] != truth[v] {
					t.Fatalf("w=%d batch %d: served core[%d] = %d, want %d", workers, bi, v, got[v], truth[v])
				}
			}
		}
		if workers == 1 && rebuilds == 0 {
			t.Fatalf("the prefill finished no batch with a rebuild")
		}
		if got := m.ServingStats().Rebuilds; got != rebuilds {
			t.Fatalf("w=%d: ServingStats.Rebuilds = %d, the batches reported %d", workers, got, rebuilds)
		}
		t.Logf("w=%d: %d batches, %d rebuilds", workers, len(batches), rebuilds)
		m.Close()
	}
}

// Churn on a power-law graph — the paper's setting and the burst-batch
// workload's — never comes near the budget, in large batches or small ones,
// so those batches measure Algorithms 7 and 8 and not a recompute.
func TestChurnNeverRebuilds(t *testing.T) {
	g := gen.PowerLawCluster(20_000, 14.2, 2.4, 1)
	churn := gen.SampleEdges(g, 4_000, 2)
	for _, size := range []int{1_000, 8} {
		m := New(g.Clone(), WithAlgorithm(ParallelOrder), WithWorkers(2))
		for lo := 0; lo < len(churn); lo += size {
			b := churn[lo:min(lo+size, len(churn))]
			m.RemoveEdges(b)
			m.InsertEdges(b)
		}
		if got := m.ServingStats().Rebuilds; got != 0 {
			t.Fatalf("%d-edge batches: %d rebuilds, want 0", size, got)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%d-edge batches: %v", size, err)
		}
		m.Close()
	}
}
