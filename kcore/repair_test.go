package kcore

import (
	"testing"

	"repro/graph"
	"repro/internal/bz"
)

// The repair count reaches the report on the product path. The shape is that
// of internal/pcore's TestRepairSkipsOffLevelHub: a ring at core 3 sits beside
// a core-8 hub adjacent to all of it, and every ring vertex also carries
// private degree-1 leaves. Cutting three ring edges drops the whole ring to
// core 2 and closing them promotes it back, so every ring vertex moves — next
// to a hub and leaves that are never at the level of the move. Every moved
// vertex is a repair target, so the count is at least the number of moves.
// Under the whole-neighborhood rule that pcore.New ships it is also the hub and
// every leaf (3601 targets for 600 moves); once the same-level rule is the
// engine's, the bound to assert here is RepairTargets <= 3*(moves+evictions).
func TestRepairTargetsReported(t *testing.T) {
	const ring, clique, leaves = 600, 8, 5
	hub := int32(ring)
	var edges []graph.Edge
	for i := int32(0); i < ring; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % ring}, graph.Edge{U: i, V: hub})
		for j := int32(0); j < leaves; j++ {
			edges = append(edges, graph.Edge{U: i, V: ring + clique + 1 + i*leaves + j})
		}
	}
	for a := hub; a <= hub+clique; a++ {
		for b := a + 1; b <= hub+clique; b++ {
			edges = append(edges, graph.Edge{U: a, V: b})
		}
	}
	base := graph.MustFromEdges(ring+clique+1+ring*leaves, edges)
	cuts := []graph.Edge{{U: 0, V: 1}, {U: 200, V: 201}, {U: 400, V: 401}}

	for _, workers := range []int{1, 2} {
		mirror := base.Clone()
		m := New(base.Clone(), WithAlgorithm(ParallelOrder), WithWorkers(workers))
		if c := m.CoreOf(hub); c != clique {
			t.Fatalf("hub core %d, want %d", c, clique)
		}
		for round := 0; round < 3; round++ {
			for _, insert := range []bool{false, true} {
				apply, mirrorEdge := m.RemoveEdges, mirror.RemoveEdge
				if insert {
					apply, mirrorEdge = m.InsertEdges, mirror.AddEdge
				}
				res := apply(cuts)
				for _, e := range cuts {
					mirrorEdge(e.U, e.V)
				}
				if res.ChangedVertices < ring {
					t.Fatalf("w=%d round %d insert=%v: %d moves, the whole ring (%d) should move",
						workers, round, insert, res.ChangedVertices, ring)
				}
				if got := res.Contention.RepairTargets; got < int64(res.ChangedVertices) {
					t.Fatalf("w=%d round %d insert=%v: %d repair targets for %d moved vertices",
						workers, round, insert, got, res.ChangedVertices)
				}
				truth, _ := bz.Decompose(mirror)
				got := m.CoreNumbers()
				for v := range truth {
					if got[v] != truth[v] {
						t.Fatalf("w=%d round %d insert=%v: core[%d] = %d, want %d",
							workers, round, insert, v, got[v], truth[v])
					}
				}
			}
			if err := m.Check(); err != nil {
				t.Fatalf("w=%d round %d: %v", workers, round, err)
			}
		}
		m.Close()
	}
}
