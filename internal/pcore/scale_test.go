package pcore

import (
	"testing"

	"repro/gen"
	"repro/internal/core"
)

// TestLargerScaleInsert reproduces the coremaint CLI scenario: a denser ER
// graph with a batch that overlaps existing edges, repeated across worker
// counts. It flaked for several PRs under -race with multiple workers
// (I1/I2 invariant failures, easiest to hit at GOMAXPROCS=2): the commit
// linearization race now pinned by TestCommitRaceRegression and fixed by
// the commit lock of core.State.Relocate.
func TestLargerScaleInsert(t *testing.T) {
	base := gen.ErdosRenyi(2000, 8000, 3)
	batch := gen.ErdosRenyi(2000, 500, 9).Edges() // overlaps base edges
	for trial := 0; trial < 20; trial++ {
		for _, workers := range []int{1, 4, 8} {
			st := core.NewState(base.Clone())
			InsertEdges(st, batch, workers)
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
		}
	}
}
