package pcore

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/core"
)

// TestFixtureOrderAudit: after replaying all but the last fixture edge,
// verify that for every adjacent pair in the O_5 walk, Order agrees, and
// that Labels are strictly increasing lexicographically.
func TestFixtureOrderAudit(t *testing.T) {
	g := graph.MustFromEdges(fixtureN, fixtureBase)
	st := core.NewState(g)
	for _, e := range fixtureBatch[:len(fixtureBatch)-1] {
		st.InsertEdgeSeq(e.U, e.V)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for k := int32(0); k <= st.MaxCoreValue(); k++ {
		list := st.List(k)
		items, err := list.Check()
		if err != nil {
			t.Fatalf("O_%d: %v", k, err)
		}
		var plt, plb uint64
		bad := 0
		for i, it := range items {
			lt, lb, _, ok := list.Labels(it)
			if !ok {
				t.Fatalf("O_%d: labels not ok for %d", k, it)
			}
			if i > 0 {
				if !(plt < lt || (plt == lt && plb < lb)) {
					bad++
					if bad < 10 {
						fmt.Printf("O_%d pos %d: item %d labels (%d,%d) not above prev (%d,%d)\n",
							k, i, it, lt, lb, plt, plb)
					}
				}
				if !list.Order(items[i-1], it) {
					bad++
					if bad < 20 {
						fmt.Printf("O_%d pos %d: Order(%d,%d) = false but walk says before\n",
							k, i, items[i-1], it)
					}
				}
			}
			plt, plb = lt, lb
		}
		if bad > 0 {
			t.Fatalf("O_%d: %d order/label inconsistencies", k, bad)
		}
	}
	t.Log("walk order and label order agree everywhere")
}
