package core

import (
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
)

// HubGraph returns a graph whose k-order lists span many OM groups — an
// Erdős–Rényi body of 3 000 vertices whose cores reach 4 — plus a hub joined
// to 400 body vertices and to 3 members of a 12-clique, so that the hub has
// neighbors below, at and above its core. The hub and the clique take the
// last 13 ids. Exported for the package's external tests.
func HubGraph(seed int64) (g *graph.Graph, hub int32) {
	const body, clique = 3000, 12
	rng := rand.New(rand.NewSource(seed))
	edges := gen.ErdosRenyi(body, 9000, seed).Edges()
	hub = body
	for _, x := range rng.Perm(body)[:400] {
		edges = append(edges, graph.Edge{U: hub, V: int32(x)})
	}
	for i := int32(0); i < clique; i++ {
		if i < 3 {
			edges = append(edges, graph.Edge{U: hub, V: hub + 1 + i})
		}
		for j := i + 1; j < clique; j++ {
			edges = append(edges, graph.Edge{U: hub + 1 + i, V: hub + 1 + j})
		}
	}
	return graph.MustFromEdges(body+1+clique, edges), hub
}

// CheckRecomputeDout recomputes every vertex's d⁺out and fails tb unless it
// equals the count of neighbors that BeforeSeq places after the vertex. It
// returns how many same-core neighbors it compared by bottom label (one OM
// group) and by top label (two groups). Exported for the package's external
// tests.
func CheckRecomputeDout(tb testing.TB, st *State) (sameGroup, otherGroup int) {
	tb.Helper()
	for v := int32(0); v < int32(st.N()); v++ {
		cv := st.CoreOf(v)
		vt, _, _, _ := st.List(cv).Labels(v)
		want := int32(0)
		for _, x := range st.G.Adj(v) {
			if st.BeforeSeq(v, x) {
				want++
			}
			if st.CoreOf(x) == cv {
				if xt, _, _, _ := st.List(cv).Labels(x); xt == vt {
					sameGroup++
				} else {
					otherGroup++
				}
			}
		}
		st.Dout[v].Store(-99)
		st.RecomputeDout(v)
		if got := st.Dout[v].Load(); got != want {
			tb.Fatalf("RecomputeDout(%d) = %d, BeforeSeq counts %d", v, got, want)
		}
	}
	return sameGroup, otherGroup
}

// hubSides fails t unless the hub has neighbors below, at and above its core.
func hubSides(t *testing.T, st *State, hub int32) {
	t.Helper()
	var below, at, above int
	for _, x := range st.G.Adj(hub) {
		switch c := st.CoreOf(x); {
		case c < st.CoreOf(hub):
			below++
		case c == st.CoreOf(hub):
			at++
		default:
			above++
		}
	}
	if below == 0 || at == 0 || above == 0 {
		t.Fatalf("hub (core %d) has %d neighbors below, %d at and %d above its core; want some of each",
			st.CoreOf(hub), below, at, above)
	}
}

// churn runs steps sequential updates on st, two insertions of a random pair
// to one removal of a random vertex's edge; every tenth update starts at
// vertex at.
func churn(st *State, rng *rand.Rand, steps int, at int32) {
	n := int32(st.N())
	for step := 0; step < steps; step++ {
		u := rng.Int31n(n)
		if step%10 == 0 {
			u = at
		}
		if rng.Intn(3) > 0 {
			st.InsertEdgeSeq(u, rng.Int31n(n))
		} else if adj := st.G.Adj(u); len(adj) > 0 {
			st.RemoveEdgeSeq(u, adj[rng.Intn(len(adj))])
		}
	}
}

// TestRecomputeDout checks the repair pass's d⁺out against BeforeSeq on a
// churned state: a sequential history of insertions and removals, some at
// the hub, over lists long enough to span many OM groups, so that both the
// top-label and the bottom-label comparison decide counts.
func TestRecomputeDout(t *testing.T) {
	g, hub := HubGraph(5)
	st := NewState(g)
	hubSides(t, st, hub)
	CheckRecomputeDout(t, st)
	churn(st, rand.New(rand.NewSource(6)), 1500, hub)
	mustCheck(t, st, "churned")
	hubSides(t, st, hub)
	same, other := CheckRecomputeDout(t, st)
	if same == 0 || other == 0 {
		t.Fatalf("compared %d same-core neighbors inside one group and %d across groups; want both", same, other)
	}
	t.Logf("hub core %d, max core %d; %d same-core neighbors compared inside one group, %d across groups",
		st.CoreOf(hub), st.MaxCoreValue(), same, other)
	mustCheck(t, st, "recomputed")
}

// TestRebuildLaysOutPeelOrder checks the state NewState and Rebuild lay out
// in one pass against the two-pass derivation: the k-order is BZ's peeling
// order stably partitioned by core (CheckPeelOrder), and every d⁺out is the
// count over it and every other invariant holds (CheckInvariants). Rebuild
// runs on a churned state and on one whose graph changed behind it, where it
// must report exactly the vertices whose core number it changed.
func TestRebuildLaysOutPeelOrder(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.New(0),
		graph.New(5),
		gen.PowerLawCluster(4000, 8, 2.4, 3),
		func() *graph.Graph { g, _ := HubGraph(7); return g }(),
	} {
		st := NewState(g)
		if err := st.CheckPeelOrder(); err != nil {
			t.Fatalf("n=%d after NewState: %v", g.N(), err)
		}
		mustCheck(t, st, "NewState")
		if g.N() < 2 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(g.N())))
		churn(st, rng, 800, 0)
		if changed := st.Rebuild(nil); len(changed) != 0 {
			t.Fatalf("n=%d: Rebuild of a maintained state changed %d cores", g.N(), len(changed))
		}
		if err := st.CheckPeelOrder(); err != nil {
			t.Fatalf("n=%d after Rebuild: %v", g.N(), err)
		}
		mustCheck(t, st, "Rebuild")

		before := st.CoreNumbers()
		for step := 0; step < 2000; step++ {
			st.G.AddEdge(rng.Int31n(int32(g.N())), rng.Int31n(int32(g.N())))
		}
		changed := st.Rebuild(nil)
		if err := st.CheckPeelOrder(); err != nil {
			t.Fatalf("n=%d after Rebuild of a grown graph: %v", g.N(), err)
		}
		mustCheck(t, st, "Rebuild of a grown graph")
		want := 0
		for v, c := range before {
			if st.CoreOf(int32(v)) != c {
				want++
			}
		}
		if want == 0 || len(changed) != want {
			t.Fatalf("n=%d: Rebuild reported %d changed cores, %d changed", g.N(), len(changed), want)
		}
		for _, v := range changed {
			if st.CoreOf(v) == before[v] {
				t.Fatalf("n=%d: Rebuild reported %d, whose core stayed %d", g.N(), v, before[v])
			}
		}
	}
}
