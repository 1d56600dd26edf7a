package kcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
)

// TestAsyncSubmissionOrder pins the Pending contract the RESP server
// builds on: ops submitted asynchronously by one goroutine coalesce in
// submission order (last op per edge wins), so an insert followed by a
// remove of the same edge — submitted back to back, waited afterwards —
// always ends with the edge absent.
func TestAsyncSubmissionOrder(t *testing.T) {
	g := gen.ErdosRenyi(200, 400, 1)
	m := New(g)
	defer m.Close()

	e := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	for round := 0; round < 50; round++ {
		var pends []*Pending
		pends = append(pends, m.InsertEdgesAsync(e))
		pends = append(pends, m.RemoveEdgesAsync(e))
		pends = append(pends, m.InsertEdgesAsync(e))
		pends = append(pends, m.RemoveEdgesAsync(e))
		for _, pd := range pends {
			pd.Wait()
			pd.Wait() // idempotent
		}
	}
	if err := m.Check(); err != nil {
		t.Fatalf("invariants after async churn: %v", err)
	}
	st := m.ServingStats()
	if st.CanceledOps == 0 {
		t.Fatalf("expected async bursts to coalesce (canceled ops > 0), got %+v", st)
	}
}

// TestAsyncWaitOnAnotherGoroutine hands each Pending to a goroutine other
// than its submitter: that one waiter sees the result the applier wrote
// before completing the op, and the applied state matches.
func TestAsyncWaitOnAnotherGoroutine(t *testing.T) {
	g := graph.MustFromEdges(64, nil)
	m := New(g)
	defer m.Close()

	const rounds = 20
	pends := make(chan *Pending, 8)
	var results []BatchResult
	waited := make(chan struct{})
	go func() {
		for pd := range pends {
			results = append(results, pd.Wait())
			pd.Wait() // still idempotent on the waiter's side
		}
		close(waited)
	}()
	// A triangle on each round's three fresh vertices: every insert lands.
	for round := int32(0); round < rounds; round++ {
		a, b, c := 3*round, 3*round+1, 3*round+2
		pends <- m.InsertEdgesAsync([]graph.Edge{{U: a, V: b}, {U: b, V: c}, {U: a, V: c}})
	}
	close(pends)
	<-waited
	if len(results) != rounds {
		t.Fatalf("%d results, want %d", len(results), rounds)
	}
	for _, res := range results {
		if res.Coalesced < 1 || res.Applied != 3*res.Coalesced {
			t.Fatalf("result seen by the other goroutine: %+v", res)
		}
	}
	for v := int32(0); v < 3*rounds; v++ {
		if k := m.CoreOf(v); k != 2 {
			t.Fatalf("CoreOf(%d) = %d, want 2", v, k)
		}
	}
	if err := m.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestAsyncAfterClose verifies Pendings keep working once the pipeline
// is shut down: submission applies synchronously, Wait returns the
// result.
func TestAsyncAfterClose(t *testing.T) {
	g := gen.ErdosRenyi(100, 200, 2)
	m := New(g)
	m.Close()
	pd := m.InsertEdgesAsync([]graph.Edge{{U: 5, V: 7}})
	res := pd.Wait()
	if res.Coalesced != 1 {
		t.Fatalf("post-Close async result = %+v, want Coalesced 1", res)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
