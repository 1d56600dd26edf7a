package cluster

import (
	"maps"
	"slices"

	"repro/graph"
	"repro/internal/bz"
)

// Oracle is the executable specification of cluster semantics: it
// replays the same operation stream the router ships — insert, remove,
// grow — against an in-memory global edge set, then derives what every
// cluster read must return by rebuilding each shard's local graph
// (owned band plus deterministic boundary mirrors, exactly as routing
// lays it out) and running the offline Batagelj–Zaversnik decomposition
// on it. The conformance suite holds every routed read byte-equal to
// the Oracle; when no cross-shard edges exist, Oracle cores also equal
// GlobalCores, the single-node ground truth.
type Oracle struct {
	m     *ShardMap
	edges map[graph.Edge]struct{} // normalized (U ≤ V), no self-loops
	n     int32                   // universe high-water mark
}

// NewOracle starts an empty oracle over the same shard map the router
// uses.
func NewOracle(m *ShardMap) *Oracle {
	return &Oracle{m: m, edges: make(map[graph.Edge]struct{})}
}

// ApplyInsert mirrors Cluster.InsertEdges for one edge: the universe
// grows to cover both endpoints (even for a dropped self-loop or
// duplicate — naming an id creates it), and a new simple edge joins the
// set.
func (o *Oracle) ApplyInsert(u, v int32) {
	o.n = max(o.n, max(u, v)+1)
	if u == v {
		return
	}
	o.edges[graph.Edge{U: u, V: v}.Norm()] = struct{}{}
}

// ApplyRemove mirrors Cluster.RemoveEdges: absent edges are dropped and
// never grow the universe.
func (o *Oracle) ApplyRemove(u, v int32) {
	delete(o.edges, graph.Edge{U: u, V: v}.Norm())
}

// Grow mirrors Cluster.Grow.
func (o *Oracle) Grow(n int32) { o.n = max(o.n, n) }

// N returns the universe size the cluster must report.
func (o *Oracle) N() int64 { return int64(o.n) }

// shardGraph rebuilds shard i's local graph: every global edge with an
// endpoint in the shard's owned range, endpoints translated exactly as
// the router translates them (owned → owned band, remote → mirror
// band).
func (o *Oracle) shardGraph(i int) *graph.Graph {
	s := o.m.Shard(i)
	var local []graph.Edge
	for e := range o.edges {
		if (e.U >= s.Lo && e.U < s.Hi) || (e.V >= s.Lo && e.V < s.Hi) {
			local = append(local, graph.Edge{U: o.m.LocalFor(i, e.U), V: o.m.LocalFor(i, e.V)})
		}
	}
	return graph.MustFromEdges(0, local)
}

// Cores returns the cluster-semantics core number of every universe id
// in [0, N): the id's core in its owning shard's local graph — a lower
// bound on the global core number, exact in the absence of cross-shard
// edges — with holes (ids that exist on no shard) at 0.
func (o *Oracle) Cores() []int32 {
	out := make([]int32, o.n)
	for i := range o.m.NumShards() {
		s := o.m.Shard(i)
		local, _ := bz.Decompose(o.shardGraph(i))
		hi := min(s.Hi, o.n)
		for g := s.Lo; g < hi; g++ {
			if l := int(g - s.Lo); l < len(local) {
				out[g] = local[l]
			}
		}
	}
	return out
}

// GlobalCores returns the single-node ground truth: core numbers of the
// global graph, computed by the offline decomposition.
func (o *Oracle) GlobalCores() []int32 {
	core, _ := bz.Decompose(graph.MustFromEdges(int(o.n), slices.Collect(maps.Keys(o.edges))))
	return core
}

// Hist returns the histogram Cluster.Hist must serve, derived from
// Cores — so hole compensation is inherent rather than replicated.
func (o *Oracle) Hist() []int64 {
	hist := []int64{0}
	for _, k := range o.Cores() {
		for int(k) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[k]++
	}
	for len(hist) > 1 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	return hist
}

// MaxCore returns the maximum cluster-semantics core number.
func (o *Oracle) MaxCore() int32 {
	var mx int32
	for _, k := range o.Cores() {
		mx = max(mx, k)
	}
	return mx
}

// KVert counts universe ids with cluster-semantics core ≥ k.
func (o *Oracle) KVert(k int32) int64 {
	if k <= 0 {
		return o.N()
	}
	var n int64
	for _, c := range o.Cores() {
		if c >= k {
			n++
		}
	}
	return n
}
