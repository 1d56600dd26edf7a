package kcore

import (
	"cmp"
	"slices"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// triangle + pendant: cores [2 2 2 1].
func fixtureGraph() *graph.Graph {
	return graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 0},
	})
}

func TestKCoreVertices(t *testing.T) {
	m := New(fixtureGraph())
	if got := m.KCoreVertices(2); len(got) != 3 {
		t.Fatalf("2-core = %v", got)
	}
	if got := m.KCoreVertices(1); len(got) != 4 {
		t.Fatalf("1-core = %v", got)
	}
	if got := m.KCoreVertices(3); got != nil {
		t.Fatalf("3-core must be empty, got %v", got)
	}
}

func TestKCoreSubgraph(t *testing.T) {
	m := New(fixtureGraph())
	sub, members := m.KCoreSubgraph(2)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("2-core subgraph n=%d m=%d, want triangle", sub.N(), sub.M())
	}
	if len(members) != 3 {
		t.Fatalf("members %v", members)
	}
	for _, v := range members {
		if v == 3 {
			t.Fatal("pendant must not be in the 2-core")
		}
	}
	// The extracted subgraph must itself be a k-core: min degree >= 2.
	for v := int32(0); v < int32(sub.N()); v++ {
		if sub.Degree(v) < 2 {
			t.Fatalf("subgraph vertex %d has degree %d", v, sub.Degree(v))
		}
	}
	if err := sub.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestKCoreSubgraphTracksMaintenance: on every engine, after a history
// that grows the universe (inserts naming unseen ids, AddVertices) and
// removes edges, the k-core helpers agree with BZ on a mirror graph that
// saw the same history — KCoreSubgraph's edges exactly the subgraph
// induced on its members.
func TestKCoreSubgraphTracksMaintenance(t *testing.T) {
	base := gen.ErdosRenyi(200, 800, 3)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			m := New(base.Clone(), WithAlgorithm(alg), WithWorkers(4))
			defer m.Close()
			mirror := base.Clone()
			insert := func(edges []graph.Edge) {
				m.InsertEdges(edges)
				for _, e := range edges {
					mirror.Grow(int(max(e.U, e.V)) + 1)
					mirror.AddEdge(e.U, e.V)
				}
			}
			remove := func(edges []graph.Edge) {
				m.RemoveEdges(edges)
				for _, e := range edges {
					mirror.RemoveEdge(e.U, e.V)
				}
			}

			insert(gen.SampleNonEdges(mirror, 100, 4))
			for _, batch := range gen.VertexArrivals(mirror.N(), 20, 4, 5) {
				insert(batch)
			}
			// A 7-clique on pre-allocated ids lifts the top core above the
			// random graph's; removals then thin both.
			first := int32(mirror.N())
			if got := m.AddVertices(7); got != int(first)+7 {
				t.Fatalf("AddVertices(7) = %d, want %d", got, first+7)
			}
			mirror.AddVertices(7)
			var clique []graph.Edge
			for u := first; u < first+7; u++ {
				for v := u + 1; v < first+7; v++ {
					clique = append(clique, graph.Edge{U: u, V: v})
				}
			}
			insert(clique)
			remove(gen.SampleEdges(mirror, 150, 6))
			remove([]graph.Edge{{U: first, V: first + 1}})

			want := Decompose(mirror)
			mx := bz.MaxCore(want)
			if m.N() != mirror.N() || m.MaxCore() != mx {
				t.Fatalf("N=%d MaxCore=%d, mirror N=%d MaxCore=%d", m.N(), m.MaxCore(), mirror.N(), mx)
			}
			for _, k := range []int32{0, 1, mx, mx + 1} {
				var members []int32
				for v, c := range want {
					if c >= k {
						members = append(members, int32(v))
					}
				}
				if got := m.KCoreVertices(k); !slices.Equal(got, members) {
					t.Fatalf("KCoreVertices(%d) = %v, want %v", k, got, members)
				}
				sub, got := m.KCoreSubgraph(k)
				if !slices.Equal(got, members) {
					t.Fatalf("KCoreSubgraph(%d) members = %v, want %v", k, got, members)
				}
				if err := sub.CheckConsistent(); err != nil {
					t.Fatalf("KCoreSubgraph(%d): %v", k, err)
				}
				if sub.N() != len(members) {
					t.Fatalf("KCoreSubgraph(%d) has %d vertices, want %d", k, sub.N(), len(members))
				}
				var induced []graph.Edge
				for i, u := range members {
					for j, v := range members[i+1:] {
						if mirror.HasEdge(u, v) {
							induced = append(induced, graph.Edge{U: int32(i), V: int32(i + 1 + j)})
						}
					}
				}
				edges := sub.Edges()
				slices.SortFunc(edges, func(a, b graph.Edge) int {
					return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
				})
				if !slices.Equal(edges, induced) {
					t.Fatalf("KCoreSubgraph(%d) has %d edges, the induced subgraph %d", k, len(edges), len(induced))
				}
				if k == mx {
					if top := m.TopCoreVertices(); !slices.Equal(top, members) {
						t.Fatalf("TopCoreVertices = %v, want %v", top, members)
					}
				}
			}
			var levels []int32
			for c := int32(0); c <= mx; c++ {
				if slices.Contains(want, c) {
					levels = append(levels, c)
				}
			}
			if got := m.CoreLevels(); !slices.Equal(got, levels) {
				t.Fatalf("CoreLevels = %v, want %v", got, levels)
			}
		})
	}
}

func TestCoreLevelsAndTopCore(t *testing.T) {
	m := New(fixtureGraph())
	levels := m.CoreLevels()
	if len(levels) != 2 || levels[0] != 1 || levels[1] != 2 {
		t.Fatalf("levels %v", levels)
	}
	top := m.TopCoreVertices()
	if len(top) != 3 {
		t.Fatalf("top core %v", top)
	}
}

func TestRemoveVertex(t *testing.T) {
	for _, alg := range allAlgorithms {
		m := New(fixtureGraph(), WithAlgorithm(alg), WithWorkers(2))
		res := m.RemoveVertex(0) // hub of the triangle + pendant
		if res.Applied != 3 {
			t.Fatalf("%v: applied %d, want 3", alg, res.Applied)
		}
		if m.CoreOf(0) != 0 {
			t.Fatalf("%v: removed vertex core = %d", alg, m.CoreOf(0))
		}
		if m.CoreOf(3) != 0 {
			t.Fatalf("%v: pendant core = %d after hub removal", alg, m.CoreOf(3))
		}
		if m.CoreOf(1) != 1 || m.CoreOf(2) != 1 {
			t.Fatalf("%v: remaining edge must keep cores 1", alg)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestRemoveIsolatedVertexNoop(t *testing.T) {
	m := New(fixtureGraph())
	if res := m.RemoveVertex(3); res.Applied != 1 {
		t.Fatalf("pendant removal applied %d", res.Applied)
	}
	if res := m.RemoveVertex(3); res.Applied != 0 {
		t.Fatal("second removal must be a no-op")
	}
}

// TestHistogramRange pins the range-restricted aggregate surface against
// brute force over random graphs: for random [lo, hi) windows (clamped,
// inverted, and beyond-N included), HistogramRange bins must match a
// direct scan of the core array.
func TestHistogramRange(t *testing.T) {
	m := New(gen.ErdosRenyi(3000, 12000, 7))
	defer m.Close()
	s := m.Snapshot()
	cores := s.CoreNumbers()
	n := int32(s.N())

	windows := [][2]int32{
		{0, n}, {0, 0}, {n, n}, {100, 100}, {0, 1}, {n - 1, n},
		{500, 1500}, {1023, 1025}, {1024, 2048}, // page boundaries
		{2900, n + 500}, {-5, 40}, {2000, 1000}, // clamped / inverted
	}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		clo, chi := max(lo, 0), min(hi, n)
		want := []int64{0}
		for v := clo; v < chi; v++ {
			c := cores[v]
			for int(c) >= len(want) {
				want = append(want, 0)
			}
			want[c]++
		}
		got := s.HistogramRange(lo, hi)
		if len(got) != len(want) {
			t.Fatalf("HistogramRange(%d,%d) has %d bins, want %d", lo, hi, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("HistogramRange(%d,%d)[%d] = %d, want %d", lo, hi, k, got[k], want[k])
			}
		}
	}

	// Whole-graph consistency: the [0, N) range histogram is the Histogram.
	whole := s.Histogram()
	ranged := s.HistogramRange(0, n)
	if len(whole) != len(ranged) {
		t.Fatalf("range [0,N) has %d bins, Histogram has %d", len(ranged), len(whole))
	}
	for k := range whole {
		if whole[k] != ranged[k] {
			t.Fatalf("bin %d: range %d, Histogram %d", k, ranged[k], whole[k])
		}
	}
}
