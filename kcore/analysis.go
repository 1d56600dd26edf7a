package kcore

import (
	"repro/graph"
	"repro/internal/snapshot"
)

// This file holds the analysis helpers applications build on maintained
// core numbers (the paper's §1 application list: dense-community
// monitoring, influential-spreader detection, hierarchy queries).
// Helpers that only need core numbers read the latest published snapshot;
// helpers that walk the graph structure run inside a pipeline barrier, at
// a quiescent point ordered after every earlier update.

// coreMembers returns the vertices of s with core number >= k, in
// ascending id order: one walk over s's pages.
func coreMembers(s *snapshot.View, k int32) []int32 {
	var out []int32
	s.ForEachPage(func(start int32, page []int32) {
		for i, c := range page {
			if c >= k {
				out = append(out, start+int32(i))
			}
		}
	})
	return out
}

// KCoreVertices returns the vertices of the k-core: all v with core(v) >= k,
// in ascending id order. O(n) over the latest snapshot — no recomputation.
func (m *Maintainer) KCoreVertices(k int32) []int32 {
	return coreMembers(m.view(), k)
}

// KCoreSubgraph extracts the k-core as a standalone graph plus the mapping
// from new ids to original vertex ids. Vertices outside the k-core are
// dropped; edges are kept iff both endpoints survive. The edges are read
// at a quiescent point.
func (m *Maintainer) KCoreSubgraph(k int32) (*graph.Graph, []int32) {
	var (
		members []int32
		edges   []graph.Edge
	)
	m.barrier(func() {
		g := m.eng.g
		members = coreMembers(m.eng.view(), k)
		// newID[v] is v's id in the subgraph plus one; 0 = outside.
		newID := make([]int32, g.N())
		for i, v := range members {
			newID[v] = int32(i) + 1
		}
		for i, v := range members {
			nv := int32(i)
			for _, w := range g.Adj(v) {
				if nw := newID[w] - 1; nv < nw {
					edges = append(edges, graph.Edge{U: nv, V: nw})
				}
			}
		}
	})
	return graph.MustFromEdges(len(members), edges), members
}

// CoreLevels returns the non-empty core values in ascending order — the
// levels of the k-core hierarchy.
func (m *Maintainer) CoreLevels() []int32 {
	hist := m.view().Hist
	out := make([]int32, 0, len(hist))
	for c, n := range hist {
		if n > 0 {
			out = append(out, int32(c))
		}
	}
	return out
}

// TopCoreVertices returns the vertices of the innermost (maximum) core —
// the densest region, where the paper's motivating applications look for
// super-spreaders.
func (m *Maintainer) TopCoreVertices() []int32 {
	s := m.view()
	return coreMembers(s, s.MaxCore)
}

// RemoveVertex removes every edge incident to v as one maintenance batch
// (the paper notes vertex deletions reduce to edge-removal sequences,
// §3.2), built from v's adjacency and applied at one quiescent point,
// so no update enqueued after the call lands between the two: v is
// isolated in the state the batch publishes. The vertex itself remains
// in the graph as an isolated, core-0 vertex. A negative or unseen id
// is a no-op, like any other removal naming a vertex outside the
// universe. Returns the batch result.
func (m *Maintainer) RemoveVertex(v int32) BatchResult {
	var res BatchResult
	m.barrier(func() {
		var batch []graph.Edge
		if v >= 0 && int(v) < m.eng.g.N() {
			for _, w := range m.eng.g.Adj(v) {
				batch = append(batch, graph.Edge{U: v, V: w})
			}
		}
		res = m.pipe.apply(m.eng, batch, nil)
	})
	res.Coalesced = 1
	return res
}
