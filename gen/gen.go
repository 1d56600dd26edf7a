// Package gen generates the synthetic graph suite used by the evaluation
// (paper §6.2). The paper's ER, BA and R-MAT graphs are generated with the
// same models here; the real-world and temporal graphs of Table 2 are
// unavailable offline and are replaced by seeded stand-ins with matching
// degree characteristics (see DESIGN.md, substitution 1).
package gen

import (
	"math"
	"math/rand"
	"sort"

	"repro/graph"
)

// ErdosRenyi samples a G(n, m) graph: m distinct uniformly random edges.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	seen := make(map[graph.Edge]bool, m)
	for int64(len(edges)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Norm()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return graph.MustFromEdges(n, edges)
}

// BarabasiAlbert grows an n-vertex preferential-attachment graph where every
// arriving vertex attaches k edges to existing vertices with probability
// proportional to degree. The result concentrates core numbers at a single
// value — the adversarial case for level-parallel baselines that the paper
// highlights (BA has a single core number of 8 in Table 2).
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if n <= k {
		panic("gen: BarabasiAlbert needs n > k")
	}
	rng := rand.New(rand.NewSource(seed))
	// The seed clique's k(k+1)/2 edges, then k per later vertex.
	m := int64(k)*int64(k+1)/2 + int64(n-k-1)*int64(k)
	edges := make([]graph.Edge, 0, m)
	// Repeated-endpoints trick: targets proportional to degree by sampling
	// uniformly from the endpoint multiset.
	endpoints := make([]int32, 0, 2*m)
	// Seed clique over the first k+1 vertices.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	// Targets are attached in the order they are drawn — the map is only
	// the membership test — so the endpoint multiset, and with it every
	// later draw, follows from the seed alone.
	chosen := make(map[int32]bool, k)
	targets := make([]int32, 0, k)
	for v := k + 1; v < n; v++ {
		clear(chosen)
		targets = targets[:0]
		for len(targets) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if t == int32(v) || chosen[t] {
				continue
			}
			chosen[t] = true
			targets = append(targets, t)
		}
		for _, t := range targets {
			edges = append(edges, graph.Edge{U: int32(v), V: t})
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return graph.MustFromEdges(n, edges)
}

// RMAT samples a recursive-matrix graph with the canonical partition
// probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), producing the
// heavy-tailed degree distribution of the paper's RMAT graph. scale is
// log2 of the vertex count.
func RMAT(scale int, m int64, seed int64) *graph.Graph {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]graph.Edge, 0, m)
	seen := make(map[graph.Edge]bool, m)
	for int64(len(edges)) < m {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left quadrant
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		e := graph.Edge{U: int32(u), V: int32(v)}.Norm()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return graph.MustFromEdges(n, edges)
}

// WattsStrogatz builds a small-world ring lattice over n vertices with k
// neighbors per side and rewiring probability p. Used as the stand-in for
// near-uniform-degree road networks (roadNet-CA has four core values).
func WattsStrogatz(n, k int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n*k)
	seen := make(map[graph.Edge]bool, n*k)
	add := func(u, v int32) bool {
		if u == v {
			return false
		}
		e := graph.Edge{U: u, V: v}.Norm()
		if seen[e] {
			return false
		}
		seen[e] = true
		edges = append(edges, e)
		return true
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if rng.Float64() < p {
				// Rewire to a uniform random target; fall back to the
				// lattice edge if we cannot find a fresh one quickly.
				placed := false
				for try := 0; try < 8; try++ {
					if add(int32(u), int32(rng.Intn(n))) {
						placed = true
						break
					}
				}
				if placed {
					continue
				}
			}
			add(int32(u), int32(v))
		}
	}
	return graph.MustFromEdges(n, edges)
}

// PowerLawCluster builds a heavy-tailed graph with tunable exponent via a
// configuration-model draw followed by simplification; the stand-in for the
// social-network graphs (livej, pokec, flickr, ...) whose core numbers
// spread over hundreds of values.
func PowerLawCluster(n int, avgDeg float64, exponent float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	// Sample degrees from a truncated discrete power law, then rescale to
	// hit the requested average degree.
	deg := make([]float64, n)
	var sum float64
	maxDeg := float64(n - 1)
	for i := range deg {
		// Inverse-CDF sampling of p(k) ~ k^-exponent on [1, maxDeg].
		u := rng.Float64()
		k := 1.0 / math.Pow(1-u*(1-math.Pow(maxDeg, 1-exponent)), 1/(exponent-1))
		if k > maxDeg {
			k = maxDeg
		}
		deg[i] = k
		sum += k
	}
	scale := avgDeg * float64(n) / sum
	stubs := make([]int32, 0, int(avgDeg*float64(n))+n)
	for i := range deg {
		c := int(deg[i]*scale + 0.5)
		if c < 1 {
			c = 1
		}
		for j := 0; j < c; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]graph.Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, graph.Edge{U: stubs[i], V: stubs[i+1]})
	}
	return graph.MustFromEdges(n, edges) // MustFromEdges strips loops and multi-edges
}

// TemporalEdge is an edge with an integer timestamp, modeling the KONECT
// temporal graphs (DBLP, Flickr, StackOverflow, wiki-edits-sh).
type TemporalEdge struct {
	E graph.Edge
	T int64
}

// TemporalStream synthesizes a timestamped edge stream over a base graph
// model: edges of g are assigned increasing timestamps with bursts, so a
// "batch of edges within a continuous time range" (paper §6.2) is a
// contiguous slice.
func TemporalStream(g *graph.Graph, seed int64) []TemporalEdge {
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out := make([]TemporalEdge, len(edges))
	t := int64(0)
	for i, e := range edges {
		// Bursty arrivals: occasionally jump the clock.
		if rng.Intn(100) == 0 {
			t += int64(rng.Intn(1000))
		}
		t += int64(rng.Intn(3))
		out[i] = TemporalEdge{E: e, T: t}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// VertexArrivals synthesizes a vertex-arrival stream over an n-vertex
// universe: count fresh vertices with ids n, n+1, ... arrive in order,
// each attaching up to `attach` edges to distinct uniformly random
// earlier vertices (original or previously arrived). Batch i introduces
// vertex n+i, so feeding the batches to a Maintainer in order exercises
// grow-on-insert — every batch's first endpoint is one past the universe
// the previous batches built.
func VertexArrivals(n, count, attach int, seed int64) [][]graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]graph.Edge, count)
	for i := 0; i < count; i++ {
		v := int32(n + i)
		attach := attach
		if attach > int(v) {
			attach = int(v) // the first arrivals may have few predecessors
		}
		chosen := map[int32]bool{}
		batch := make([]graph.Edge, 0, attach)
		for len(batch) < attach {
			t := rng.Int31n(v)
			if chosen[t] {
				continue
			}
			chosen[t] = true
			batch = append(batch, graph.Edge{U: v, V: t})
		}
		batches[i] = batch
	}
	return batches
}

// SampleEdges picks k distinct existing edges of g uniformly at random —
// the removal workload ("we randomly select 100,000 edges").
func SampleEdges(g *graph.Graph, k int, seed int64) []graph.Edge {
	edges := g.Edges()
	if k > len(edges) {
		k = len(edges)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges[:k]
}

// SampleNonEdges picks k distinct vertex pairs absent from g uniformly at
// random — the insertion workload.
func SampleNonEdges(g *graph.Graph, k int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	out := make([]graph.Edge, 0, k)
	seen := make(map[graph.Edge]bool, k)
	for len(out) < k {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Norm()
		if seen[e] || g.HasEdge(u, v) {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// CrossRangeEdges samples m distinct edges over a universe of capacity
// ids split into `shards` equal contiguous ranges — the workload shape
// of an id-range sharded cluster. An expected crossFrac fraction of the
// edges span two different ranges (cluster boundary edges, mirrored on
// both owners); the rest stay inside one range. crossFrac 0 yields a
// perfectly partitionable stream, 1 an all-boundary one.
func CrossRangeEdges(capacity int32, shards int, m int, crossFrac float64, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	w, extra := capacity/int32(shards), capacity%int32(shards)
	lo := func(i int32) int32 {
		base := i * w
		return base + min(i, extra)
	}
	pick := func(i int32) int32 {
		width := w
		if i < extra {
			width++
		}
		return lo(i) + rng.Int31n(width)
	}
	edges := make([]graph.Edge, 0, m)
	seen := make(map[graph.Edge]bool, m)
	for len(edges) < m {
		a := rng.Int31n(int32(shards))
		u := pick(a)
		b := a
		if shards > 1 && rng.Float64() < crossFrac {
			b = rng.Int31n(int32(shards) - 1)
			if b >= a {
				b++
			}
		}
		v := pick(b)
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Norm()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges
}
