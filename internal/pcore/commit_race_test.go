package pcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/core"
)

// TestCommitRaceRegression replays the shrunk instance that exposed the
// commit linearization race fixed by core.State.Relocate's commit lock
// (most readily under GOMAXPROCS=2 with -race): worker A, preempted
// between publishing core(w)=k+1 and inserting w at the head of O_{k+1},
// let worker B promote an adjacent vertex into the same list in between —
// the list order then inverted relative to the linearization other
// workers derived from Core loads and lock aborts, leaving a final k-order
// with dout > core (I2) and, when later edges of the batch built on it,
// over-promoted core numbers (I1). Before the fix this instance failed
// within a few thousand trials; the loop is sized to stay cheap in the
// suite while still giving the interleaving thousands of chances under
// `make race`.
func TestCommitRaceRegression(t *testing.T) {
	baseEdges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 17}, {U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 8}, {U: 1, V: 15}, {U: 1, V: 17}, {U: 2, V: 3}, {U: 2, V: 6}, {U: 2, V: 10}, {U: 3, V: 14}, {U: 3, V: 15}, {U: 3, V: 16}, {U: 3, V: 17}, {U: 4, V: 6}, {U: 4, V: 9}, {U: 4, V: 10}, {U: 4, V: 12}, {U: 5, V: 10}, {U: 5, V: 12}, {U: 6, V: 15}, {U: 7, V: 8}, {U: 7, V: 12}, {U: 7, V: 13}, {U: 7, V: 18}, {U: 8, V: 17}, {U: 9, V: 15}, {U: 9, V: 16}, {U: 10, V: 13}, {U: 10, V: 15}, {U: 11, V: 12}, {U: 11, V: 13}, {U: 11, V: 14}, {U: 11, V: 18}, {U: 12, V: 18}, {U: 13, V: 17}, {U: 13, V: 18}, {U: 14, V: 19}, {U: 15, V: 17}, {U: 16, V: 19}}
	batch := []graph.Edge{{U: 5, V: 7}, {U: 9, V: 12}, {U: 4, V: 13}, {U: 8, V: 9}, {U: 4, V: 15}, {U: 7, V: 16}, {U: 18, V: 19}, {U: 0, V: 7}, {U: 3, V: 11}, {U: 2, V: 11}}
	base := graph.MustFromEdges(20, baseEdges)
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	for trial := 0; trial < trials; trial++ {
		st := core.NewState(base.Clone())
		InsertEdges(st, batch, 4)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestCommitRaceMixedChurn drives the removal twin of the same race: the
// drop's core store and its tail-of-O_{k-1} relocation must publish as
// one unit too. Repeated insert/remove churn of one overlapping edge set
// with many workers gives the interleaving room under -race.
func TestCommitRaceMixedChurn(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	base := gen.ErdosRenyi(300, 1200, 5)
	batch := gen.SampleNonEdges(base, 150, 6)
	st := core.NewState(base)
	for r := 0; r < rounds; r++ {
		InsertEdges(st, batch, 8)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("round %d after insert: %v", r, err)
		}
		RemoveEdges(st, batch, 8)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("round %d after remove: %v", r, err)
		}
	}
}
