package kcore

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// insertAsync and removeAsync submit edges with a fresh future.
func insertAsync(m *Maintainer, edges []graph.Edge) *Pending {
	pd := new(Pending)
	m.Submit(pd, nil, edges)
	return pd
}

func removeAsync(m *Maintainer, edges []graph.Edge) *Pending {
	pd := new(Pending)
	m.Submit(pd, edges, nil)
	return pd
}

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
		pends = append(pends, insertAsync(m, e))
		pends = append(pends, removeAsync(m, e))
		pends = append(pends, insertAsync(m, e))
		pends = append(pends, removeAsync(m, e))
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

// TestPendingReuse pins the recycled-future contract a kcored connection
// builds on: one Pending resubmitted after each Wait reports exactly what a
// fresh future per op reports, a resubmission before Wait panics, and an
// idle recycled future keeps no caller slice reachable.
func TestPendingReuse(t *testing.T) {
	base := gen.ErdosRenyi(40, 60, 3)
	mirror := base.Clone()
	reused, fresh := New(base.Clone(), WithWorkers(1)), New(base, WithWorkers(1))
	defer reused.Close()
	defer fresh.Close()

	var pd Pending
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		e := []graph.Edge{{U: rng.Int31n(40), V: rng.Int31n(40)}}
		var want BatchResult
		if i%2 == 0 {
			reused.Submit(&pd, nil, e)
			want = insertAsync(fresh, e).Wait()
			mirror.AddEdge(e[0].U, e[0].V)
		} else {
			reused.Submit(&pd, e, nil)
			want = removeAsync(fresh, e).Wait()
			mirror.RemoveEdge(e[0].U, e[0].V)
		}
		got := pd.Wait()
		if got.Applied != want.Applied || got.ChangedVertices != want.ChangedVertices || got.Coalesced != 1 || want.Coalesced != 1 {
			t.Fatalf("op %d on %v: recycled future reports %+v, fresh one %+v", i, e, got, want)
		}
	}
	truth, _ := bz.Decompose(mirror)
	if got, want := reused.CoreNumbers(), fresh.CoreNumbers(); !slices.Equal(got, want) || !slices.Equal(got, truth) {
		t.Fatalf("final cores: recycled %v, fresh %v, BZ %v", got, want, truth)
	}

	// Resubmitting a future still owed panics before it touches the op.
	reused.Submit(&pd, nil, []graph.Edge{{U: 1, V: 2}})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "before its Wait returned") {
				t.Errorf("resubmit before Wait: recovered %v, want the owed-future panic", r)
			}
		}()
		reused.Submit(&pd, []graph.Edge{{U: 1, V: 2}}, nil)
	}()
	if res := pd.Wait(); res.Coalesced != 1 {
		t.Fatalf("owed op after the rejected resubmit: %+v", res)
	}

	// A waited, recycled future does not pin the edges it carried.
	es := []graph.Edge{{U: 3, V: 30}, {U: 4, V: 31}}
	reused.Submit(&pd, nil, es)
	pd.Wait()
	wp := weak.Make(&es[0])
	es = nil
	for deadline := time.Now().Add(time.Second); wp.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an idle recycled future keeps its edge slice reachable 1 s after Wait returned")
		}
		runtime.GC()
	}
	runtime.KeepAlive(&pd)
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
		pends <- insertAsync(m, []graph.Edge{{U: a, V: b}, {U: b, V: c}, {U: a, V: c}})
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

// TestAsyncAfterClose: a Pending submitted before Close is applied by the
// drain Close waits for, and its Wait answers after Close; submitting it
// again after Close panics instead of applying.
func TestAsyncAfterClose(t *testing.T) {
	g := gen.ErdosRenyi(100, 200, 2)
	e := gen.SampleNonEdges(g, 1, 3)[0]
	m := New(g)
	pd := insertAsync(m, []graph.Edge{e})
	m.Close()
	if res := pd.Wait(); res.Coalesced != 1 || res.Applied != 1 {
		t.Fatalf("pre-Close async result = %+v, want the edge applied", res)
	}
	if m.Epoch() != 2 || m.CoreOf(e.U) == 0 {
		t.Fatalf("after Close: epoch %d, core(%d) %d", m.Epoch(), e.U, m.CoreOf(e.U))
	}
	defer func() {
		if r := recover(); r != "kcore: Maintainer used after Close" {
			t.Fatalf("Submit after Close: recovered %v", r)
		}
	}()
	insertAsync(m, []graph.Edge{{U: 5, V: 8}})
}
