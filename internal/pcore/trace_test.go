package pcore

import (
	"fmt"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/core"
)

// TestReplayShrunkBatch replays the shrunk failing batch from
// TestShrinkInsertFailure many times and, on the first invariant failure,
// dumps the complete final state for analysis.
func TestReplayShrunkBatch(t *testing.T) {
	baseEdges := []graph.Edge{{U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}, {U: 0, V: 10}, {U: 0, V: 11}, {U: 0, V: 12}, {U: 1, V: 8}, {U: 1, V: 12}, {U: 1, V: 13}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 2, V: 7}, {U: 2, V: 11}, {U: 2, V: 16}, {U: 3, V: 8}, {U: 3, V: 9}, {U: 3, V: 12}, {U: 4, V: 13}, {U: 4, V: 17}, {U: 5, V: 12}, {U: 5, V: 16}, {U: 6, V: 8}, {U: 6, V: 10}, {U: 6, V: 11}, {U: 7, V: 16}, {U: 7, V: 17}, {U: 8, V: 9}, {U: 10, V: 11}, {U: 10, V: 13}, {U: 11, V: 12}, {U: 12, V: 13}, {U: 12, V: 14}, {U: 12, V: 15}, {U: 13, V: 17}, {U: 14, V: 15}, {U: 16, V: 17}}
	batch := []graph.Edge{{U: 2, V: 13}, {U: 0, V: 16}, {U: 0, V: 3}, {U: 4, V: 7}, {U: 7, V: 12}, {U: 4, V: 5}}
	base := graph.MustFromEdges(18, baseEdges)
	for trial := 0; trial < 4000; trial++ {
		var mu sync.Mutex
		var events []string
		traceFn = func(format string, args ...any) {
			mu.Lock()
			events = append(events, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		st := core.NewState(base.Clone())
		InsertEdges(st, batch, 4)
		traceFn = nil
		if err := st.CheckInvariants(); err != nil {
			t.Logf("trial %d: %v", trial, err)
			for _, e := range events {
				t.Log(e)
			}
			dumpState(t, st)
			t.FailNow()
		}
	}
}

func dumpState(t *testing.T, st *core.State) {
	t.Helper()
	maxK := st.MaxCoreValue()
	for k := int32(0); k <= maxK; k++ {
		items, err := st.List(k).Check()
		if err != nil {
			t.Logf("O_%d: %v", k, err)
			continue
		}
		line := fmt.Sprintf("O_%d:", k)
		for _, v := range items {
			line += fmt.Sprintf(" %d", v)
		}
		t.Log(line)
	}
	for v := 0; v < st.N(); v++ {
		t.Logf("v=%d core=%d dout=%d mcd=%d adj=%v",
			v, st.CoreOf(int32(v)), st.Dout[v].Load(), st.Mcd[v].Load(), st.G.Adj(int32(v)))
	}
}
