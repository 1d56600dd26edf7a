package kcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
)

// TestReloadMidChurn: on every engine, Reload replaces the graph at a
// barrier behind the writes already submitted — onto a larger graph at a
// higher epoch, then a smaller one at a lower epoch — and publishes the
// new decomposition at the epoch it is given, leaving held snapshots and
// the op log untouched and the maintainer working as if New had built it
// over the reloaded graph.
func TestReloadMidChurn(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			lg := &epochRecordingLog{}
			m := New(gen.ErdosRenyi(100, 300, 401), WithAlgorithm(alg), WithWorkers(3),
				WithMaxVertices(100), WithOpLog(lg))
			defer m.Close()
			lg.m = m

			assertDecomposed := func(when string) {
				t.Helper()
				if err := m.Check(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				truth := Decompose(m.Graph())
				got := m.CoreNumbers()
				if len(got) != len(truth) {
					t.Fatalf("%s: %d cores, want %d", when, len(got), len(truth))
				}
				for v, want := range truth {
					if got[v] != want {
						t.Fatalf("%s: core[%d] = %d, want %d", when, v, got[v], want)
					}
				}
			}
			// churn submits a burst of single-edge writes on ids below n
			// without waiting for them.
			churn := func(n int32, seed int64) []*Pending {
				var pds []*Pending
				for i, e := range gen.ErdosRenyi(int(n), 40, seed).Edges() {
					if i%4 == 3 {
						pds = append(pds, removeAsync(m, []graph.Edge{e}))
					} else {
						pds = append(pds, insertAsync(m, []graph.Edge{e}))
					}
				}
				return pds
			}
			// reload reloads g at epoch behind a churn burst still in the
			// pipeline. A barrier submitted between the two records what the
			// churn left, so the reload's own publication and log traffic
			// show.
			reload := func(g *graph.Graph, epoch uint64, churnN int32, seed int64) {
				t.Helper()
				held := m.Snapshot()
				heldCores := held.CoresInto(nil)
				pending := churn(churnN, seed)
				var before ServingStats
				var logged int
				pending = append(pending, m.pipe.submit(new(Pending), nil, nil, func() {
					before = m.ServingStats()
					lg.mu.Lock()
					logged = len(lg.events)
					lg.mu.Unlock()
				}))
				n, edges := g.N(), g.M()

				m.Reload(g, epoch)
				for _, pd := range pending {
					pd.Wait()
				}
				after := m.ServingStats()
				if m.N() != n || m.Graph().M() != edges {
					t.Fatalf("after Reload: N = %d, M = %d; want the reloaded graph's %d, %d", m.N(), m.Graph().M(), n, edges)
				}
				if after.Epoch != epoch {
					t.Fatalf("epoch %d after Reload at %d (was %d)", after.Epoch, epoch, before.Epoch)
				}
				if after.FullPublishes != before.FullPublishes+1 {
					t.Fatalf("Reload made %d full publishes, want 1", after.FullPublishes-before.FullPublishes)
				}
				lg.mu.Lock()
				if len(lg.events) != logged {
					t.Errorf("Reload wrote %d op-log events", len(lg.events)-logged)
				}
				lg.mu.Unlock()
				if held.N() != len(heldCores) {
					t.Fatalf("held snapshot N moved %d -> %d", len(heldCores), held.N())
				}
				for v, want := range heldCores {
					if got := held.CoreOf(int32(v)); got != want {
						t.Fatalf("held snapshot core[%d] moved %d -> %d", v, want, got)
					}
				}
				assertDecomposed("after Reload")
			}

			// Larger: the vertex ceiling rises to the new N.
			reload(gen.ErdosRenyi(300, 1200, 402), 1000, 100, 403)
			if res := m.InsertEdge(0, 299); res.Applied != 1 {
				t.Fatalf("insert at id 299 after reloading 300 vertices applied %d", res.Applied)
			}
			if n := m.AddVertices(10); n != 300 {
				t.Fatalf("AddVertices past the raised ceiling = %d, want 300", n)
			}
			for _, pd := range churn(300, 404) {
				pd.Wait()
			}
			assertDecomposed("after churn on the larger graph")

			// Smaller: N shrinks to the reloaded graph's, the ceiling stays.
			reload(gen.ErdosRenyi(50, 120, 405), 7, 300, 406)
			if n := m.AddVertices(5); n != 55 {
				t.Fatalf("AddVertices(5) on 50 vertices = %d, want 55", n)
			}
			m.InsertEdges([]graph.Edge{{U: 50, V: 51}, {U: 51, V: 52}, {U: 52, V: 50}, {U: 3, V: 54}})
			m.RemoveEdges(gen.ErdosRenyi(50, 120, 405).Edges()[:30])
			for _, pd := range churn(55, 407) {
				pd.Wait()
			}
			assertDecomposed("after churn on the smaller graph")
		})
	}
}
