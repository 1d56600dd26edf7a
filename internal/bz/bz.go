// Package bz implements the Batagelj–Zaversnik (BZ) linear-time core
// decomposition (paper §3.1, Algorithm 1). Besides the core numbers it emits
// the peeling sequence, which is exactly the initial k-order ≺ that the
// Order-based maintenance algorithms maintain (Definition 3.5).
//
// Two implementations are provided: Decompose, the classic O(m+n) bin-sort
// version whose processing order is ascending by degree (the "small degree
// first" tie strategy that the paper selects for all experiments), and
// DecomposeWithStrategy, a bucket-queue version with pluggable tie strategy
// used by the tie-strategy ablation benchmark.
package bz

import (
	"math/rand"

	"repro/graph"
)

// TieStrategy selects which vertex to peel when several share the minimal
// current degree (paper §3.3.1).
type TieStrategy int

const (
	// SmallDegreeFirst prefers vertices with smaller initial degree; the
	// paper's experiments use this strategy as it "consistently has the
	// best performance".
	SmallDegreeFirst TieStrategy = iota
	// LargeDegreeFirst prefers vertices with larger initial degree.
	LargeDegreeFirst
	// RandomTie picks uniformly among the candidates.
	RandomTie
)

// Decompose computes the core number of every vertex of g and the peeling
// order (a valid k-order) in O(m + n) time with the bin-sort construction.
func Decompose(g *graph.Graph) (core []int32, order []int32) {
	return peel(g, nil)
}

// DecomposeDout is Decompose that also returns d⁺out in the peeling order
// (Definition 3.7): dout[v] counts v's neighbors peeled after v. The peel
// counts them as it goes — they are exactly the neighbors still unpeeled
// when v is — so the k-order's out-degrees cost no second adjacency pass.
func DecomposeDout(g *graph.Graph) (core, order, dout []int32) {
	dout = make([]int32, g.N())
	core, order = peel(g, dout)
	return core, order, dout
}

// peel is the bin-sort BZ loop behind Decompose and DecomposeDout; a nil
// dout records no out-degrees.
func peel(g *graph.Graph, dout []int32) (core []int32, order []int32) {
	n := g.N()
	core = make([]int32, n)
	if n == 0 {
		return core, []int32{}
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] = index in vert of the first vertex with degree d.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	// vert holds the vertices sorted by current degree; its prefix up to
	// the vertex being peeled is the peeling order, which no later swap
	// touches, so it is returned as order.
	vert := make([]int32, n)
	pos := make([]int32, n) // position of each vertex in vert
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d >= 1; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	for i := int32(0); i < int32(n); i++ {
		v := vert[i]
		dv := deg[v]
		core[v] = dv
		out := int32(0)
		for _, u := range g.Adj(v) {
			if du := deg[u]; du > dv {
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
				out++
			} else if pos[u] > i {
				// Unpeeled at v's own degree: the other unpeeled
				// neighbors are those of higher degree, counted
				// above; a peeled one sits before i.
				out++
			}
		}
		if dout != nil {
			dout[v] = out
		}
	}
	return core, vert
}

// DecomposeWithStrategy computes core numbers and a peeling order using
// bucket queues with an explicit tie strategy. Core numbers are identical to
// Decompose for every strategy; only the emitted k-order instance differs.
// seed is used by RandomTie only.
func DecomposeWithStrategy(g *graph.Graph, strat TieStrategy, seed int64) (core []int32, order []int32) {
	n := g.N()
	core = make([]int32, n)
	order = make([]int32, 0, n)
	if n == 0 {
		return core, order
	}
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int32, n)
	orig := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		orig[v] = deg[v]
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	processed := 0
	d := int32(0)
	for processed < n {
		if d > maxDeg {
			break
		}
		b := buckets[d]
		if len(b) == 0 {
			d++
			continue
		}
		// Pick the candidate per strategy. Entries may be stale
		// (vertex degree has changed); skip those lazily.
		idx := -1
		switch strat {
		case SmallDegreeFirst, LargeDegreeFirst:
			var best int32
			for i, v := range b {
				if removed[v] || deg[v] != d {
					continue
				}
				if idx == -1 ||
					(strat == SmallDegreeFirst && orig[v] < best) ||
					(strat == LargeDegreeFirst && orig[v] > best) {
					idx, best = i, orig[v]
				}
			}
		case RandomTie:
			liveCount := 0
			for _, v := range b {
				if !removed[v] && deg[v] == d {
					liveCount++
				}
			}
			if liveCount > 0 {
				target := rng.Intn(liveCount)
				for i, v := range b {
					if removed[v] || deg[v] != d {
						continue
					}
					if target == 0 {
						idx = i
						break
					}
					target--
				}
			}
		}
		if idx == -1 {
			buckets[d] = b[:0]
			d++
			continue
		}
		v := b[idx]
		b[idx] = b[len(b)-1]
		buckets[d] = b[:len(b)-1]
		removed[v] = true
		core[v] = d
		order = append(order, v)
		processed++
		for _, u := range g.Adj(v) {
			if !removed[u] && deg[u] > d {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < d {
					panic("bz: degree fell below current level")
				}
			}
		}
	}
	return core, order
}

// MaxCore returns the maximum core number ("Max k" in Table 2).
func MaxCore(core []int32) int32 {
	var m int32
	for _, c := range core {
		if c > m {
			m = c
		}
	}
	return m
}

// CoreHistogram returns how many vertices have each core number; index k
// holds |{v : core(v) = k}|, and the result has length MaxCore+1 (so [0]
// for an empty input). One pass over core: the bins grow on demand instead
// of a separate MaxCore scan sizing them up front. JEI/JER parallelism is
// bounded by the number of distinct non-empty bins (paper §6.2).
func CoreHistogram(core []int32) []int64 {
	h := make([]int64, 1, 64)
	for _, c := range core {
		for int(c) >= len(h) {
			h = append(h, 0)
		}
		h[c]++
	}
	return h
}

// DistinctCores counts non-empty histogram bins.
func DistinctCores(core []int32) int {
	n := 0
	for _, c := range CoreHistogram(core) {
		if c > 0 {
			n++
		}
	}
	return n
}

// Verify checks that claimed core numbers are the true core numbers of g:
// (a) every vertex has at least core(v) neighbors with core >= core(v)
// inside the subgraph induced by {u : core(u) >= core(v)} — established by
// iterative peeling — and (b) the claimed values match a fresh
// decomposition. Returns true on agreement. Intended for tests; O(m + n).
func Verify(g *graph.Graph, claimed []int32) bool {
	truth, _ := Decompose(g)
	if len(truth) != len(claimed) {
		return false
	}
	for v := range truth {
		if truth[v] != claimed[v] {
			return false
		}
	}
	return true
}
