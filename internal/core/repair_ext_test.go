package core_test

import (
	"math/rand"
	"testing"

	"repro/graph"
	"repro/internal/core"
	"repro/internal/pcore"
)

// TestRecomputeDoutAfterParallelBatches checks the repair pass's d⁺out
// against BeforeSeq after multi-worker Parallel-Order batches, whose
// concurrent moves are what the repair pass settles.
func TestRecomputeDoutAfterParallelBatches(t *testing.T) {
	g, hub := core.HubGraph(11)
	st := core.NewState(g)
	eng := pcore.New(st, 2)
	rng := rand.New(rand.NewSource(12))
	n := int32(g.N())
	for round := 0; round < 6; round++ {
		var ins []graph.Edge
		for len(ins) < 300 {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if len(ins)%8 == 0 {
				u = hub
			}
			if u != v && !g.HasEdge(u, v) {
				ins = append(ins, graph.Edge{U: u, V: v})
			}
		}
		eng.InsertEdges(ins)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("round %d, after insertions: %v", round, err)
		}
		core.CheckRecomputeDout(t, st)

		edges := g.Edges()
		rem := make([]graph.Edge, 250)
		for i := range rem {
			rem[i] = edges[rng.Intn(len(edges))]
		}
		eng.RemoveEdges(rem)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("round %d, after removals: %v", round, err)
		}
		if same, other := core.CheckRecomputeDout(t, st); same == 0 || other == 0 {
			t.Fatalf("round %d: compared %d same-core neighbors inside one group and %d across groups; want both",
				round, same, other)
		}
	}
}
