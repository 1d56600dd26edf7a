package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N=%d M=%d, want 5, 0", g.N(), g.M())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) must succeed")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate (reversed) edge must be rejected")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop must be rejected")
	}
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("unexpected state m=%d", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge must be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("absent edge reported present")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if !g.RemoveEdge(2, 0) {
		t.Fatal("RemoveEdge must succeed for present edge (reversed args)")
	}
	if g.RemoveEdge(0, 2) {
		t.Fatal("RemoveEdge must fail for absent edge")
	}
	if g.M() != 2 || g.Degree(0) != 2 || g.Degree(2) != 0 {
		t.Fatalf("unexpected state after removal m=%d", g.M())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {3, 1}})
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3 (dups and self-loop dropped)", g.M())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := MustFromEdges(5, []Edge{{3, 1}, {0, 4}, {2, 0}})
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	for _, e := range es {
		if e.U > e.V {
			t.Fatalf("edge %v not canonical", e)
		}
	}
}

func TestClone(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}})
	c := g.Clone()
	c.AddEdge(2, 3)
	c.RemoveEdge(0, 1)
	if g.M() != 2 || !g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Fatal("mutating clone leaked into original")
	}
	if err := c.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsNegative(t *testing.T) {
	for _, edges := range [][]Edge{
		{{-1, 2}},
		{{0, 1}, {3, -7}},
		{{-4, -4}},
	} {
		if g, err := FromEdges(5, edges); err == nil {
			t.Fatalf("FromEdges(%v) = %v, want error", edges, g)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MustFromEdges(%v) must panic", edges)
				}
			}()
			MustFromEdges(5, edges)
		}()
	}
}

func TestFromEdgesGrowsPastN(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 1}, {1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 8, 2", g.N(), g.M())
	}
	if !g.HasEdge(1, 7) || g.Degree(5) != 0 {
		t.Fatal("grown universe malformed")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowAndAddVertices(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}})
	g.Grow(2) // never shrinks
	if g.N() != 3 {
		t.Fatalf("Grow(2) shrank to N=%d", g.N())
	}
	g.Grow(6)
	if g.N() != 6 || g.M() != 2 {
		t.Fatalf("N=%d M=%d after Grow(6)", g.N(), g.M())
	}
	if first := g.AddVertices(3); first != 6 || g.N() != 9 {
		t.Fatalf("AddVertices(3) = %d, N=%d", first, g.N())
	}
	if first := g.AddVertices(0); first != 9 || g.N() != 9 {
		t.Fatalf("AddVertices(0) = %d, N=%d", first, g.N())
	}
	if !g.AddEdge(8, 0) || !g.HasEdge(0, 8) {
		t.Fatal("edge to grown vertex must work")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertices(1)
	if id != 2 || g.N() != 3 {
		t.Fatalf("AddVertices(1) returned %d, N=%d", id, g.N())
	}
	if !g.AddEdge(2, 0) {
		t.Fatal("edge to new vertex must work")
	}
}

func TestDegreeStats(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
}

func TestReadWriteEdgeListRoundTrip(t *testing.T) {
	in := "# comment\n% another\n0 1\n1 2\n2 0\n\n3 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip changed the graph")
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestReadEdgeListBadInput(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "-1 2\n", "0 99999999999\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q must fail", in)
		}
	}
}

func TestNormIdempotent(t *testing.T) {
	e := Edge{5, 2}
	if e.Norm() != (Edge{2, 5}) || e.Norm().Norm() != e.Norm() {
		t.Fatal("Norm misbehaves")
	}
}

// Property: a random sequence of adds and removes keeps the symmetric
// adjacency invariant, and membership matches a reference map.
func TestQuickAddRemoveAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		g := New(n)
		ref := map[Edge]bool{}
		for step := 0; step < 500; step++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			e := Edge{u, v}.Norm()
			if rng.Intn(2) == 0 {
				want := u != v && !ref[e]
				if got := g.AddEdge(u, v); got != want {
					t.Logf("seed %d: AddEdge(%d,%d)=%v want %v", seed, u, v, got, want)
					return false
				}
				if want {
					ref[e] = true
				}
			} else {
				want := ref[e]
				if got := g.RemoveEdge(u, v); got != want {
					t.Logf("seed %d: RemoveEdge(%d,%d)=%v want %v", seed, u, v, got, want)
					return false
				}
				delete(ref, e)
			}
		}
		if int(g.M()) != len(ref) {
			return false
		}
		return g.CheckConsistent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := New(1000)
	rng := rand.New(rand.NewSource(7))
	edges := make([]Edge, 2048)
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(1000)), int32(rng.Intn(1000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if g.AddEdge(e.U, e.V) {
			g.RemoveEdge(e.U, e.V)
		}
	}
}
