// Package traversal implements the Traversal core maintenance algorithm of
// Sarıyüce et al. [20] — the sequential algorithm every competing parallel
// system builds on (paper §1, §2.2) and the basis of the JEI/JER baseline in
// internal/jes. Insertion performs a depth-first search inside the k-subcore
// pruned by the max-core degree (mcd) and pure-core degree (pcd); removal
// propagates mcd deficits exactly like the Order-based removal but without
// any k-order bookkeeping.
//
// Unlike the Order algorithm, the searching set V+ here is the pruned
// subcore, whose size (and the ratio |V+|/|V*|) is what the paper's
// stability experiment (Fig. 6) shows fluctuating.
//
// Core numbers and mcd are stored atomically so that the join-edge-set
// scheduler in internal/jes may run operations at core levels ≥ 2 apart
// concurrently; within one level all operations are sequential.
package traversal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/graph"
	"repro/internal/bz"
	"repro/internal/grow"
)

// State carries the Traversal algorithm's maintenance state: current core
// numbers and eagerly maintained max-core degrees.
type State struct {
	G    *graph.Graph
	core []atomic.Int32
	mcd  []atomic.Int32
	// mu guards the adjacency structure of G: operations mutate it under
	// the write lock and traverse it under read locks, so that the jes
	// scheduler may run level-isolated operations concurrently. (Level
	// isolation keeps the SEMANTICS stable; the lock keeps the slice
	// memory safe.)
	mu sync.RWMutex
}

// NewState computes the initial core numbers (BZ) and all max-core degrees.
func NewState(g *graph.Graph) *State {
	n := g.N()
	st := &State{
		G:    g,
		core: make([]atomic.Int32, n),
		mcd:  make([]atomic.Int32, n),
	}
	cores, _ := bz.Decompose(g)
	for v := 0; v < n; v++ {
		st.core[v].Store(cores[v])
	}
	for v := int32(0); v < int32(n); v++ {
		st.mcd[v].Store(st.computeMCD(v))
	}
	return st
}

// Grow extends the vertex universe to at least n vertices. New vertices
// are isolated (core 0, mcd 0 — the zero values). Must run at quiescence
// (between batches / jes levels), so reallocating the atomic arrays races
// with nothing.
func (st *State) Grow(n int) {
	old := len(st.core)
	if n <= old {
		return
	}
	st.G.Grow(n)
	st.core = grow.Slice(st.core, n)
	st.mcd = grow.Slice(st.mcd, n)
}

// CoreOf returns the current core number of v.
func (st *State) CoreOf(v int32) int32 { return st.core[v].Load() }

// CoreNumbers returns a snapshot of all core numbers.
func (st *State) CoreNumbers() []int32 {
	out := make([]int32, len(st.core))
	for v := range st.core {
		out[v] = st.core[v].Load()
	}
	return out
}

func (st *State) computeMCD(v int32) int32 {
	cv := st.core[v].Load()
	m := int32(0)
	for _, w := range st.G.Adj(v) {
		if st.core[w].Load() >= cv {
			m++
		}
	}
	return m
}

// pcd is the pure-core degree: neighbors that can contribute to promoting v
// past k — strictly higher core, or same core with mcd above k.
func (st *State) pcd(v, k int32) int32 {
	p := int32(0)
	for _, w := range st.G.Adj(v) {
		cw := st.core[w].Load()
		if cw > k || (cw == k && st.mcd[w].Load() > k) {
			p++
		}
	}
	return p
}

// Stats reports the effect of one operation; VPlus is the number of visited
// vertices (the searching set), VStar the number of core-number changes and
// Changed the changed vertices themselves (V*).
type Stats struct {
	Applied bool
	VPlus   int
	VStar   int
	Changed []int32
}

// InsertEdge inserts (u, v) and updates core numbers with the Traversal
// insertion: a pcd-pruned DFS through the k-subcore followed by an eviction
// cascade.
func (st *State) InsertEdge(u, v int32) Stats {
	if u == v {
		return Stats{}
	}
	st.mu.Lock()
	ok := st.G.AddEdge(u, v)
	st.mu.Unlock()
	if !ok {
		return Stats{}
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	cu, cv := st.core[u].Load(), st.core[v].Load()
	if cv >= cu {
		st.mcd[u].Add(1)
	}
	if cu >= cv {
		st.mcd[v].Add(1)
	}
	r := u
	k := cu
	if cv < cu {
		r = v
		k = cv
	}
	// Phase 1 — prune-bounded DFS through the k-subcore: visit vertices
	// with mcd > k reachable from the root, expanding only past vertices
	// whose candidate degree exceeds k (they are interior; cd ≤ k marks a
	// boundary). No cd is mutated during the walk, so every visited
	// vertex's cd is its pure-core degree against the pre-insertion
	// state — the eviction cascade below then sees consistent counts.
	visitOrder := []int32{r}
	visited := map[int32]bool{r: true}
	cd := map[int32]int32{r: st.pcd(r, k)}
	stack := []int32{r}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cd[w] <= k {
			continue // boundary vertex: cannot be promoted, do not expand
		}
		for _, x := range st.G.Adj(w) {
			if !visited[x] && st.core[x].Load() == k && st.mcd[x].Load() > k {
				visited[x] = true
				cd[x] = st.pcd(x, k)
				visitOrder = append(visitOrder, x)
				stack = append(stack, x)
			}
		}
	}
	// Phase 2 — eviction cascade: every visited vertex that cannot keep
	// cd > k is evicted, decrementing the cd of visited neighbors that
	// counted it in their pure-core degree.
	evicted := map[int32]bool{}
	var queue []int32
	for _, w := range visitOrder {
		if cd[w] <= k {
			evicted[w] = true
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		if st.mcd[y].Load() <= k {
			// y was never counted in any neighbor's pcd; nothing to
			// propagate (only the root can get here).
			continue
		}
		for _, x := range st.G.Adj(y) {
			if visited[x] && !evicted[x] {
				cd[x]--
				if cd[x] <= k {
					evicted[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	var promoted []int32
	for _, w := range visitOrder {
		if !evicted[w] {
			promoted = append(promoted, w)
		}
	}
	st.applyPromotions(promoted, k)
	return Stats{Applied: true, VPlus: len(visitOrder), VStar: len(promoted), Changed: promoted}
}

// applyPromotions bumps the promoted vertices' cores to k+1 and repairs mcd
// incrementally: each promoted vertex is recomputed, and every unpromoted
// neighbor at level k+1 gains one qualifying neighbor.
func (st *State) applyPromotions(promoted []int32, k int32) {
	isPromoted := map[int32]bool{}
	for _, w := range promoted {
		isPromoted[w] = true
		st.core[w].Store(k + 1)
	}
	for _, w := range promoted {
		st.mcd[w].Store(st.computeMCD(w))
		for _, x := range st.G.Adj(w) {
			if !isPromoted[x] && st.core[x].Load() == k+1 {
				st.mcd[x].Add(1)
			}
		}
	}
}

// RemoveEdge removes (u, v) and updates core numbers with the Traversal
// removal: mcd deficits cascade through the level-k neighborhood (V+ = V*).
func (st *State) RemoveEdge(u, v int32) Stats {
	if u == v {
		return Stats{}
	}
	st.mu.Lock()
	ok := st.G.RemoveEdge(u, v)
	st.mu.Unlock()
	if !ok {
		return Stats{}
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	cu, cv := st.core[u].Load(), st.core[v].Load()
	k := cu
	if cv < k {
		k = cv
	}
	if cv >= cu {
		st.mcd[u].Add(-1)
	}
	if cu >= cv {
		st.mcd[v].Add(-1)
	}
	var dropped []int32
	var queue []int32
	drop := func(x int32) {
		st.core[x].Store(k - 1)
		dropped = append(dropped, x)
		queue = append(queue, x)
	}
	if st.core[u].Load() == k && st.mcd[u].Load() < k {
		drop(u)
	}
	if st.core[v].Load() == k && st.mcd[v].Load() < k {
		drop(v)
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, x := range st.G.Adj(w) {
			if st.core[x].Load() != k {
				continue
			}
			// w left level k: x loses one qualifying neighbor.
			if st.mcd[x].Add(-1) < k {
				drop(x)
			}
		}
	}
	for _, w := range dropped {
		st.mcd[w].Store(st.computeMCD(w))
	}
	return Stats{Applied: true, VPlus: len(dropped), VStar: len(dropped), Changed: dropped}
}

// CheckInvariants verifies that cores match a fresh decomposition and that
// every maintained mcd matches Definition 3.8. For tests.
func (st *State) CheckInvariants() error {
	truth, _ := bz.Decompose(st.G)
	for v := range truth {
		if got := st.core[v].Load(); got != truth[v] {
			return fmt.Errorf("traversal: core[%d] = %d, want %d", v, got, truth[v])
		}
	}
	for v := int32(0); v < int32(st.G.N()); v++ {
		if got, want := st.mcd[v].Load(), st.computeMCD(v); got != want {
			return fmt.Errorf("traversal: mcd[%d] = %d, want %d", v, got, want)
		}
	}
	return nil
}
