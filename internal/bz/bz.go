// Package bz implements the Batagelj–Zaversnik (BZ) linear-time core
// decomposition (paper §3.1, Algorithm 1). Besides the core numbers it emits
// the peeling sequence, which is exactly the initial k-order ≺ that the
// Order-based maintenance algorithms maintain (Definition 3.5).
//
// Decompose is the classic O(m+n) bin-sort version, whose processing order
// is ascending by degree (the "small degree first" tie strategy that the
// paper selects for all experiments); the tie-strategy ablation's
// bucket-queue variant lives in the package's tests.
package bz

import "repro/graph"

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
