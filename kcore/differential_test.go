package kcore

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/internal/snapshot"
)

// TestDifferentialDeltaPublish interleaves randomized insert/remove
// batches across all four engines and asserts after every batch that the
// published view — almost always produced by the copy-on-write delta path
// (all engines report per-batch V* now) — is byte-equal to a from-scratch BZ rebuild
// of a mirror graph: cores, Hist, MaxCore, N and M. 1000+ mixed batches
// per engine (reduced under -short).
func TestDifferentialDeltaPublish(t *testing.T) {
	batches := 1000
	if testing.Short() {
		batches = 150
	}
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(97 + int64(alg)))
			// Several pages plus a short tail, so the engine-reported
			// changed sets exercise real multi-page COW publication
			// (page-index arithmetic, clean-page sharing), not just the
			// single-page degenerate case.
			const n = 3*snapshot.PageSize + 123
			base := gen.ErdosRenyi(n, 3*n, 55)
			mirror := base.Clone()
			m := New(base, WithAlgorithm(alg), WithWorkers(4))
			defer m.Close()

			var buf []int32
			verify := func(round int) {
				t.Helper()
				s := m.Snapshot()
				truth, _ := bz.Decompose(mirror)
				buf = s.CoresInto(buf)
				for v := range truth {
					if buf[v] != truth[v] {
						t.Fatalf("round %d: core[%d] = %d, want %d", round, v, buf[v], truth[v])
					}
				}
				wantHist := bz.CoreHistogram(truth)
				if s.MaxCore() != int32(len(wantHist))-1 {
					t.Fatalf("round %d: MaxCore = %d, want %d", round, s.MaxCore(), len(wantHist)-1)
				}
				gotHist := s.Histogram()
				if len(gotHist) != len(wantHist) {
					t.Fatalf("round %d: hist %v, want %v", round, gotHist, wantHist)
				}
				for k := range wantHist {
					if gotHist[k] != wantHist[k] {
						t.Fatalf("round %d: hist[%d] = %d, want %d", round, k, gotHist[k], wantHist[k])
					}
				}
				if s.N() != mirror.N() || s.M() != mirror.M() {
					t.Fatalf("round %d: N=%d M=%d, want N=%d M=%d", round, s.N(), s.M(), mirror.N(), mirror.M())
				}
			}

			for round := 0; round < batches; round++ {
				if rng.Intn(2) == 0 {
					// Insert a small batch of random pairs (duplicates
					// and existing edges exercised on purpose).
					k := 1 + rng.Intn(8)
					batch := make([]graph.Edge, 0, k)
					for i := 0; i < k; i++ {
						u, v := rng.Int31n(n), rng.Int31n(n)
						if u == v {
							continue
						}
						batch = append(batch, graph.Edge{U: u, V: v})
					}
					m.InsertEdges(batch)
					for _, e := range batch {
						mirror.AddEdge(e.U, e.V)
					}
				} else {
					// Remove a random sample of present edges, plus the
					// occasional absent pair.
					edges := mirror.Edges()
					k := 1 + rng.Intn(8)
					batch := make([]graph.Edge, 0, k)
					for i := 0; i < k && len(edges) > 0; i++ {
						batch = append(batch, edges[rng.Intn(len(edges))])
					}
					if rng.Intn(4) == 0 {
						batch = append(batch, graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
					}
					m.RemoveEdges(batch)
					for _, e := range batch {
						mirror.RemoveEdge(e.U, e.V)
					}
				}
				verify(round)
			}

			st := m.ServingStats()
			if st.DeltaPublishes == 0 {
				t.Fatalf("%v: no delta publications exercised, stats %+v", alg, st)
			}
			// Only the initial view may be a full rebuild: every engine —
			// JES included — reports its per-batch V*, and these small
			// batches must never hit the rebuild fallback.
			if st.FullPublishes > 1 {
				t.Fatalf("%v: %d full publishes for small batches, stats %+v", alg, st.FullPublishes, st)
			}
		})
	}
}

// TestOldViewStableDuringPublishes: a reader holding an old paged view
// must see exactly the values it was published with while later batches
// clone and publish new pages over the same page table. Run with -race.
func TestOldViewStableDuringPublishes(t *testing.T) {
	base := gen.ErdosRenyi(3*4096+77, 30_000, 77) // several pages, short tail
	n := int32(base.N())
	pool := gen.SampleNonEdges(base, 256, 78)
	m := New(base, WithWorkers(4))
	defer m.Close()

	held := m.Snapshot()
	want := held.CoreNumbers()
	wantMax, wantM := held.MaxCore(), held.M()
	wantHist := append([]int64(nil), held.Histogram()...)

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < 4; i++ {
			m.InsertEdges(pool)
			m.RemoveEdges(pool)
		}
	}()

	// Keep re-reading the held view until the writer has published all its
	// batches over it (and for a minimum number of rounds either way).
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds || !writerDone.Load(); r++ {
		for v := int32(0); v < n; v++ {
			if got := held.CoreOf(v); got != want[v] {
				t.Errorf("held view drifted: core[%d] = %d, want %d", v, got, want[v])
				wg.Wait()
				return
			}
		}
		if held.MaxCore() != wantMax || held.M() != wantM {
			t.Fatalf("held view aggregates drifted")
		}
		for k, h := range held.Histogram() {
			if h != wantHist[k] {
				t.Fatalf("held view hist drifted at %d", k)
			}
		}
	}
	wg.Wait()

	// The writer really published new views over the held one.
	if st := m.ServingStats(); st.DeltaPublishes+st.UnchangedPublishes+st.FullPublishes < 2 {
		t.Fatalf("no publications happened while the view was held: %+v", st)
	}
	if m.Epoch() == held.Epoch() {
		t.Fatal("epoch never advanced")
	}
}

// TestHugeBatchPublishesCopyOnWrite: a batch whose changed set is a large
// share of the graph is published copy-on-write like any other — one
// epoch, correct cores, and views held from before untouched. Then, on a
// graph of four full pages, batches that move a vertex on every page
// publish whole-graph deltas that clone every page from the free list.
func TestHugeBatchPublishesCopyOnWrite(t *testing.T) {
	const n, k = 64, 24
	var ring, clique []graph.Edge
	for v := int32(0); v < n; v++ {
		ring = append(ring, graph.Edge{U: v, V: (v + 1) % n})
	}
	// Turning the ring's first k vertices into a clique lifts all k of them
	// (k ≥ n/4) from core 2 to core k−1 in one batch.
	for u := int32(0); u < k; u++ {
		for v := u + 2; v < k; v++ {
			clique = append(clique, graph.Edge{U: u, V: v})
		}
	}
	// One path a–b–c per page of a four-page graph: closing every path
	// into a triangle lifts three vertices on each page from core 1 to
	// core 2, reopening them drops them again.
	const pages = 4
	var paths, closing []graph.Edge
	for p := int32(0); p < pages; p++ {
		a := p * snapshot.PageSize
		paths = append(paths, graph.Edge{U: a, V: a + 1}, graph.Edge{U: a + 1, V: a + 2})
		closing = append(closing, graph.Edge{U: a, V: a + 2})
	}
	for _, alg := range allAlgorithms {
		base := graph.MustFromEdges(n, ring)
		mirror := base.Clone()
		m := New(base, WithAlgorithm(alg), WithWorkers(2))
		held := m.Snapshot()
		heldCores := held.CoreNumbers()
		before := m.ServingStats()

		res := m.InsertEdges(clique)
		for _, e := range clique {
			mirror.AddEdge(e.U, e.V)
		}
		if res.Applied != len(clique) || res.ChangedVertices < k {
			t.Fatalf("%v: batch applied %d of %d edges and moved %d vertices, want at least %d",
				alg, res.Applied, len(clique), res.ChangedVertices, k)
		}
		st := m.ServingStats()
		if st.FullPublishes != 1 || st.DeltaPublishes != before.DeltaPublishes+1 {
			t.Fatalf("%v: %d full and %d delta publications, want 1 (New) and %d",
				alg, st.FullPublishes, st.DeltaPublishes, before.DeltaPublishes+1)
		}
		if got := m.Epoch(); got != held.Epoch()+1 {
			t.Fatalf("%v: epoch %d after one batch on epoch %d", alg, got, held.Epoch())
		}
		truth, _ := bz.Decompose(mirror)
		if got := m.CoreNumbers(); !slices.Equal(got, truth) {
			t.Fatalf("%v: served cores %v, want %v", alg, got, truth)
		}
		if got := held.CoreNumbers(); !slices.Equal(got, heldCores) || held.MaxCore() != 2 {
			t.Fatalf("%v: the publication changed a view held from before it: %v", alg, got)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		m.Close()

		// Whole-graph deltas: nothing escapes between the batches (the
		// stats and the results read no snapshot), so each batch's pages
		// are reclaimed at the next one's publication and the third batch
		// takes every page it clones from the free list.
		base = graph.MustFromEdges(pages*snapshot.PageSize, paths)
		mirror = base.Clone()
		m = New(base, WithAlgorithm(alg), WithWorkers(2))
		held = m.Snapshot()
		heldCores = held.CoreNumbers()
		before = m.ServingStats()
		for i, apply := range []func([]graph.Edge) BatchResult{m.InsertEdges, m.RemoveEdges, m.InsertEdges} {
			if res := apply(closing); res.Applied != len(closing) || res.ChangedVertices < 3*pages {
				t.Fatalf("%v: batch %d applied %d of %d edges and moved %d vertices, want at least %d",
					alg, i, res.Applied, len(closing), res.ChangedVertices, 3*pages)
			}
		}
		for _, e := range closing {
			mirror.AddEdge(e.U, e.V)
		}
		st = m.ServingStats()
		if st.FullPublishes != 1 || st.DeltaPublishes != before.DeltaPublishes+3 ||
			st.DirtyPages != before.DirtyPages+3*pages || st.RecycledPages < before.RecycledPages+pages {
			t.Fatalf("%v: three whole-graph batches: stats %+v from %+v, want 3 deltas of %d dirty pages, the last from the free list",
				alg, st, before, pages)
		}
		truth, _ = bz.Decompose(mirror)
		if got := m.CoreNumbers(); !slices.Equal(got, truth) {
			t.Fatalf("%v: served cores after the whole-graph deltas differ from BZ", alg)
		}
		if got := held.CoreNumbers(); !slices.Equal(got, heldCores) {
			t.Fatalf("%v: a whole-graph delta changed a view held from before it", alg)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		m.Close()
	}
}
