package kcore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// TestInsertEdgesAutoGrow: the serving pipeline must grow the vertex
// universe for insert endpoints beyond N — on every engine — leaving the
// maintainer byte-equal to a fresh decomposition of the grown graph.
func TestInsertEdgesAutoGrow(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			base := gen.ErdosRenyi(60, 180, 301)
			m := New(base, WithAlgorithm(alg), WithWorkers(3))
			defer m.Close()

			if m.N() != 60 {
				t.Fatalf("N = %d, want 60", m.N())
			}
			// A batch naming fresh vertices 60..63, wired to the old range
			// and to each other (a triangle, so growth changes cores too).
			epoch := m.Epoch()
			res := m.InsertEdges([]graph.Edge{
				{U: 10, V: 60}, {U: 61, V: 11},
				{U: 62, V: 63}, {U: 63, V: 60}, {U: 60, V: 62},
			})
			if res.Applied != 5 {
				t.Fatalf("applied %d of 5 grown-range edges", res.Applied)
			}
			if m.N() != 64 {
				t.Fatalf("N = %d after auto-grow, want 64", m.N())
			}
			if c := m.CoreOf(62); c != 2 {
				t.Fatalf("core of grown triangle vertex = %d, want 2", c)
			}
			// Growth and the batch are one copy-on-write publication, one
			// epoch: growth must neither add an epoch nor degrade
			// publication to an O(n) rebuild.
			st := m.ServingStats()
			if st.GrowPublishes != 1 || st.DeltaPublishes != 0 || st.UnchangedPublishes != 0 || st.FullPublishes != 1 {
				t.Fatalf("publish counters %+v: want one grow publication beside the initial full", st)
			}
			if got := m.Epoch(); got != epoch+1 {
				t.Fatalf("growing batch moved the epoch %d -> %d, want one step", epoch, got)
			}
			// Vertex churn: a stream of arrivals, each naming a fresh vertex,
			// with an earlier arrival's edges removed every fourth step. It
			// too must publish on the grow and delta paths only.
			before := m.ServingStats()
			stream := gen.VertexArrivals(m.N(), 24, 3, 309)
			for j, batch := range stream {
				m.InsertEdges(batch)
				if j%4 == 3 {
					m.RemoveEdges(stream[j-2])
				}
			}
			st = m.ServingStats()
			if st.FullPublishes != 1 {
				t.Fatalf("churn fell back to %d O(n) rebuilds", st.FullPublishes-1)
			}
			if st.GrowPublishes == before.GrowPublishes || st.DeltaPublishes == before.DeltaPublishes {
				t.Fatalf("churn missed the grow/delta paths: %+v before, %+v after", before, st)
			}
			// A self-loop at an unseen id is a growth and nothing else —
			// the batch AddVertices is: N covers the id, no edge applies,
			// and it publishes once.
			u := int32(m.N() + 5)
			epoch = m.Epoch()
			if res := m.InsertEdge(u, u); res.Applied != 0 || m.N() != int(u)+1 || m.Epoch() != epoch+1 {
				t.Fatalf("self-loop at unseen %d: applied %d, N = %d, epoch %d -> %d; want 0, %d, one step",
					u, res.Applied, m.N(), epoch, m.Epoch(), u+1)
			}
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
			truth := Decompose(m.Graph())
			for v, want := range truth {
				if got := m.CoreOf(int32(v)); got != want {
					t.Fatalf("core[%d] = %d, want %d", v, got, want)
				}
			}
		})
	}
}

// TestAddVerticesPreallocates: explicit growth is visible immediately
// (read-your-writes) and the new range accepts edges.
func TestAddVerticesPreallocates(t *testing.T) {
	m := New(gen.ErdosRenyi(40, 120, 302))
	defer m.Close()
	if n := m.AddVertices(10); n != 50 || m.N() != 50 {
		t.Fatalf("AddVertices = %d, N = %d, want 50", n, m.N())
	}
	if n := m.AddVertices(0); n != 50 {
		t.Fatalf("AddVertices(0) = %d, want 50", n)
	}
	if c := m.CoreOf(49); c != 0 {
		t.Fatalf("pre-allocated vertex core = %d, want 0", c)
	}
	if res := m.InsertEdge(49, 0); res.Applied != 1 {
		t.Fatal("edge to pre-allocated vertex must apply")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedAndUnseenOpsDropped: negative-endpoint ops are dropped
// from both halves, and removals naming unseen vertices are dropped
// without growing the universe.
func TestMalformedAndUnseenOpsDropped(t *testing.T) {
	m := New(gen.ErdosRenyi(30, 90, 303))
	defer m.Close()
	if res := m.InsertEdges([]graph.Edge{{U: -1, V: 5}, {U: 3, V: -9}}); res.Applied != 0 {
		t.Fatalf("negative-endpoint inserts applied: %+v", res)
	}
	if res := m.RemoveEdges([]graph.Edge{{U: -2, V: 1}, {U: 4, V: 1000}}); res.Applied != 0 {
		t.Fatalf("malformed/unseen removals applied: %+v", res)
	}
	if m.N() != 30 {
		t.Fatalf("N = %d: removals/malformed ops must not grow the universe", m.N())
	}
	// Mixed batch: the valid op must survive the drops.
	if res := m.InsertEdges([]graph.Edge{{U: -1, V: 5}, {U: 0, V: 35}}); res.Applied != 1 {
		t.Fatalf("valid op dropped alongside malformed one: %+v", res)
	}
	if m.N() != 36 {
		t.Fatalf("N = %d, want 36", m.N())
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxVerticesCeiling: ids at or beyond the WithMaxVertices ceiling
// are dropped instead of growing the universe, and AddVertices clamps —
// one corrupted id must not wedge the applier in a huge allocation. At
// the ceiling AddVertices has nothing to grow: it neither logs nor
// publishes.
func TestMaxVerticesCeiling(t *testing.T) {
	lg := &recordingLog{}
	m := New(gen.ErdosRenyi(30, 90, 305), WithMaxVertices(40), WithOpLog(lg))
	defer m.Close()
	if res := m.InsertEdges([]graph.Edge{{U: 0, V: 1 << 30}, {U: 2, V: 40}}); res.Applied != 0 {
		t.Fatalf("beyond-ceiling inserts applied: %+v", res)
	}
	if m.N() != 30 {
		t.Fatalf("N = %d: beyond-ceiling ids must not grow", m.N())
	}
	if res := m.InsertEdge(3, 39); res.Applied != 1 {
		t.Fatal("insert below the ceiling must grow and apply")
	}
	if n := m.AddVertices(100); n != 40 || m.N() != 40 {
		t.Fatalf("AddVertices must clamp to the ceiling, got %d", n)
	}
	logged, epoch := len(lg.ops), m.Epoch()
	if n := m.AddVertices(1); n != 40 || len(lg.ops) != logged || m.Epoch() != epoch {
		t.Fatalf("AddVertices at the ceiling = %d, logged %d records, epoch %d -> %d; want 40, none, unmoved",
			n, len(lg.ops)-logged, epoch, m.Epoch())
	}
	// A k near math.MaxInt clamps to the ceiling rather than overflowing
	// N+k into a negative target that grows nothing.
	huge := New(graph.New(10), WithMaxVertices(100))
	defer huge.Close()
	if n := huge.AddVertices(math.MaxInt); n != 100 || huge.N() != 100 {
		t.Fatalf("AddVertices(MaxInt) = %d, N = %d; want the ceiling 100", n, huge.N())
	}
	// The ceiling never cuts below an already-bigger construction graph.
	bigBase := gen.ErdosRenyi(50, 150, 306)
	free := gen.SampleNonEdges(bigBase, 1, 308)[0]
	big := New(bigBase, WithMaxVertices(10))
	defer big.Close()
	if res := big.InsertEdge(free.U, free.V); res.Applied != 1 {
		t.Fatal("in-universe insert must apply despite a lower ceiling")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceHistoryMatchesDecompose: on every engine, after a
// history that grows the universe (inserts naming unseen ids,
// AddVertices) and removes edges, the published cores, N, MaxCore and
// histogram are BZ's on a mirror graph that saw the same history. The
// engine-level conformance suite grows by insert endpoints only; this
// history also runs AddVertices' growth batch through the pipeline.
func TestMaintenanceHistoryMatchesDecompose(t *testing.T) {
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
			if mx := bz.MaxCore(want); m.N() != mirror.N() || m.MaxCore() != mx {
				t.Fatalf("N=%d MaxCore=%d, mirror N=%d MaxCore=%d", m.N(), m.MaxCore(), mirror.N(), mx)
			}
			if got := m.CoreNumbers(); !slices.Equal(got, want) {
				t.Fatal("cores differ from Decompose of the mirror")
			}
			hist := make([]int64, m.MaxCore()+1)
			for _, c := range want {
				hist[c]++
			}
			if got := m.CoreHistogram(); !slices.Equal(got, hist) {
				t.Fatalf("CoreHistogram = %v, want %v", got, hist)
			}
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHeldViewsStableAcrossGrowth is the growth race test: readers hold
// pre-growth snapshots and hammer queries while the applier grows the
// universe and publishes post-growth batches. Held views must stay
// byte-stable (their N and every core), which the race detector verifies
// against the COW publication path under `make race`.
func TestHeldViewsStableAcrossGrowth(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const baseN = 200
			base := gen.ErdosRenyi(baseN, 800, 304)
			m := New(base, WithAlgorithm(alg), WithWorkers(3))
			defer m.Close()

			held := m.Snapshot()
			wantN := held.N()
			wantCores := held.CoresInto(nil)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					v := int32(r)
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Fresh snapshots may see any N >= baseN; the held
						// one must never move.
						s := m.Snapshot()
						if s.N() < baseN {
							panic(fmt.Sprintf("snapshot N shrank to %d", s.N()))
						}
						m.CoreOf(v % int32(baseN))
						if held.N() != wantN {
							panic("held view's N changed")
						}
						held.CoreOf(v % int32(wantN))
						v++
					}
				}(r)
			}

			next := int32(baseN)
			for round := 0; round < 30; round++ {
				// Mixed traffic: edges inside the old range, plus arrivals
				// naming fresh vertices (auto-grow mid-run).
				m.InsertEdges([]graph.Edge{
					{U: next % baseN, V: (next + 7) % baseN},
					{U: next, V: next % baseN},
					{U: next + 1, V: next},
				})
				m.RemoveEdge(next%baseN, (next+7)%baseN)
				next += 2
			}
			m.Flush()
			close(stop)
			wg.Wait()

			if held.N() != wantN {
				t.Fatalf("held view N = %d, want %d", held.N(), wantN)
			}
			for v, want := range wantCores {
				if got := held.CoreOf(int32(v)); got != want {
					t.Fatalf("held view core[%d] = %d, want %d", v, got, want)
				}
			}
			if m.N() != int(next) {
				t.Fatalf("N = %d after churn, want %d", m.N(), next)
			}
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
			truth, _ := bz.Decompose(m.Graph())
			snap := m.Snapshot()
			for v, want := range truth {
				if got := snap.CoreOf(int32(v)); got != want {
					t.Fatalf("core[%d] = %d, want %d", v, got, want)
				}
			}
		})
	}
}
