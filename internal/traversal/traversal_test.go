package traversal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
)

func mustCheck(t *testing.T, st *State, context string) {
	t.Helper()
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestNewStateMCD(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 1)
	st := NewState(g)
	mustCheck(t, st, "init")
}

func TestInsertTriangle(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	st := NewState(g)
	res := st.InsertEdge(0, 2)
	if !res.Applied || res.VStar == 0 {
		t.Fatalf("insert: %+v", res)
	}
	for v := int32(0); v < 3; v++ {
		if st.CoreOf(v) != 2 {
			t.Fatalf("core[%d] = %d, want 2", v, st.CoreOf(v))
		}
	}
	mustCheck(t, st, "triangle")
}

func TestInsertNoChangeBridge(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	})
	st := NewState(g)
	res := st.InsertEdge(0, 3)
	if !res.Applied || res.VStar != 0 {
		t.Fatalf("bridge: %+v", res)
	}
	mustCheck(t, st, "bridge")
}

func TestRemoveTriangle(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	st := NewState(g)
	res := st.RemoveEdge(0, 2)
	if !res.Applied || res.VStar != 3 {
		t.Fatalf("remove: %+v", res)
	}
	mustCheck(t, st, "triangle removal")
}

func TestRejectsDegenerate(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}})
	st := NewState(g)
	if st.InsertEdge(0, 0).Applied || st.InsertEdge(0, 1).Applied {
		t.Fatal("self-loop/duplicate must not apply")
	}
	if st.RemoveEdge(1, 2).Applied {
		t.Fatal("absent removal must not apply")
	}
	mustCheck(t, st, "degenerate")
}

func TestGrowMintsIsolatedVertices(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	st := NewState(g)

	st.Grow(10)
	st.Grow(5) // never shrinks
	if len(st.core) != 10 || st.G.N() != 10 {
		t.Fatalf("N=%d G.N=%d, want 10", len(st.core), st.G.N())
	}
	for v := int32(3); v < 10; v++ {
		if st.CoreOf(v) != 0 || st.mcd[v].Load() != 0 {
			t.Fatalf("new vertex %d: core %d mcd %d, want 0/0", v, st.CoreOf(v), st.mcd[v].Load())
		}
	}
	mustCheck(t, st, "after growth")

	// The grown range must be maintainable: promote new vertices into the
	// triangle's level, then collapse them again.
	for _, e := range []graph.Edge{{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 4}, {U: 9, V: 0}} {
		if !st.InsertEdge(e.U, e.V).Applied {
			t.Fatalf("insert %v into grown range did not apply", e)
		}
	}
	mustCheck(t, st, "edges into grown range")
	st.RemoveEdge(4, 5)
	mustCheck(t, st, "removal in grown range")
}

func TestMixedWorkload(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 4)
	st := NewState(g)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		u, v := int32(rng.Intn(120)), int32(rng.Intn(120))
		if rng.Intn(2) == 0 {
			st.InsertEdge(u, v)
		} else {
			st.RemoveEdge(u, v)
		}
		if step%50 == 0 {
			mustCheck(t, st, "mixed step")
		}
	}
	mustCheck(t, st, "mixed final")
}

func TestCliqueCycle(t *testing.T) {
	const n = 14
	st := NewState(graph.New(n))
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			st.InsertEdge(u, v)
		}
	}
	mustCheck(t, st, "clique")
	for v := int32(0); v < n; v++ {
		if st.CoreOf(v) != n-1 {
			t.Fatalf("core[%d] = %d, want %d", v, st.CoreOf(v), n-1)
		}
	}
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			st.RemoveEdge(u, v)
		}
	}
	mustCheck(t, st, "dismantled")
}

// Property: Traversal agrees with BZ under random maintenance on multiple
// families; also V* <= V+ always.
func TestQuickTraversalMaintenance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		var g *graph.Graph
		if rng.Intn(2) == 0 {
			g = gen.ErdosRenyi(n, int64(2*n), seed)
		} else {
			g = gen.RMAT(6, int64(n), seed)
			n = g.N()
		}
		st := NewState(g)
		for step := 0; step < 150; step++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			var s Stats
			if rng.Intn(2) == 0 {
				s = st.InsertEdge(u, v)
			} else {
				s = st.RemoveEdge(u, v)
			}
			if s.VStar > s.VPlus {
				return false
			}
		}
		return st.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The defining behavioral contrast with the Order algorithm: Traversal's
// searching set V+ is a subcore-scale region. On a graph that is one big
// subcore, inserted edges that change nothing still traverse many vertices.
func TestVPlusSubcoreScale(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 21)
	st := NewState(g)
	batch := gen.SampleNonEdges(g, 50, 22)
	maxVPlus := 0
	for _, e := range batch {
		s := st.InsertEdge(e.U, e.V)
		if s.VPlus > maxVPlus {
			maxVPlus = s.VPlus
		}
	}
	mustCheck(t, st, "subcore scale")
	if maxVPlus < 10 {
		t.Fatalf("expected subcore-scale traversal on BA graph, max |V+| = %d", maxVPlus)
	}
}
