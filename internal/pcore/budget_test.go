package pcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/internal/core"
)

// A batch that spends its budget finishes with a rebuild. Four thousand
// random edges on a sparse random graph of 4 096 vertices form its 2- and
// 3-cores: Σ|V+| passes the 2^14 floor part-way through, the rest of the
// batch — a duplicate and a self-loop among it — is applied by the rebuild,
// and the engine carries on with Algorithm 7 and 8 batches on the rebuilt
// k-order.
func TestBudgetSpentFinishesWithRebuild(t *testing.T) {
	const n = 4096
	base := gen.ErdosRenyi(n, n, 1)
	fresh := gen.SampleNonEdges(base, n, 2)
	batch := append(append([]graph.Edge{}, fresh...), fresh[len(fresh)-1], graph.Edge{U: 7, V: 7})
	before, _ := bz.Decompose(base)
	for _, workers := range []int{1, 2} {
		st := core.NewState(base.Clone())
		e := newSameLevel(st, workers)
		b := e.InsertEdges(batch)
		mustCheck(t, st, "rebuilt batch")
		if b.Metrics.Rebuilds != 1 || b.Metrics.RepairTargets != 0 {
			t.Fatalf("w=%d: Rebuilds %d, RepairTargets %d; want 1 and 0 (the rebuild replaces the repair)",
				workers, b.Metrics.Rebuilds, b.Metrics.RepairTargets)
		}
		traversed, rebuilt := 0, 0
		for _, s := range b.Sizes {
			switch {
			case s >= 0:
				traversed++
			case s == Rebuilt:
				rebuilt++
			}
		}
		if traversed == 0 || rebuilt == 0 {
			t.Fatalf("w=%d: %d edges traversed, %d applied by the rebuild; want both", workers, traversed, rebuilt)
		}
		if got := b.Applied(); got != len(fresh) || traversed+rebuilt != len(fresh) {
			t.Fatalf("w=%d: Applied %d (%d traversed + %d rebuilt), want %d", workers, got, traversed, rebuilt, len(fresh))
		}
		reported := map[int32]bool{}
		for _, vs := range b.Changed {
			for _, v := range vs {
				reported[v] = true
			}
		}
		after, _ := bz.Decompose(st.G)
		for v := range after {
			if after[v] != before[v] && !reported[int32(v)] {
				t.Fatalf("w=%d: core[%d] moved %d -> %d, but Changed does not name it", workers, v, before[v], after[v])
			}
		}

		churn := gen.SampleEdges(st.G, 200, 3)
		e.RemoveEdges(churn)
		mustCheck(t, st, "removal after the rebuild")
		if b := e.InsertEdges(churn); b.Metrics.Rebuilds != 0 || b.Applied() != len(churn) {
			t.Fatalf("w=%d: re-insert after the rebuild: Rebuilds %d, Applied %d of %d",
				workers, b.Metrics.Rebuilds, b.Applied(), len(churn))
		}
		mustCheck(t, st, "insertion after the rebuild")
	}
}
