package core

// RemoveEdgeSeq removes the undirected edge (u, v) and restores all
// maintenance invariants with the sequential Order-based removal algorithm.
// The structure mirrors Algorithm 8 with a single worker — core numbers drop
// immediately and the t status marks in-flight vertices so that lazily
// recomputed mcd values stay consistent (the same code path the parallel
// version exercises). It reports whether the edge was applied and |V*|.
func (st *State) RemoveEdgeSeq(u, v int32) RemoveStats {
	if u == v || !st.G.HasEdge(u, v) {
		return RemoveStats{}
	}
	cu, cv := st.Core[u].Load(), st.Core[v].Load()
	k := cu
	if cv < k {
		k = cv
	}
	// Ensure both endpoints have a known mcd that still counts the edge
	// (Algorithm 8 line 3 runs CheckMCD before the removal).
	if st.Mcd[u].Load() == McdEmpty {
		st.Mcd[u].Store(st.computeMCD(u))
	}
	if st.Mcd[v].Load() == McdEmpty {
		st.Mcd[v].Store(st.computeMCD(v))
	}
	// The earlier endpoint loses the out-edge u ↦ v.
	if st.BeforeSeq(u, v) {
		st.Dout[u].Add(-1)
	} else {
		st.Dout[v].Add(-1)
	}
	st.G.RemoveEdge(u, v)

	r := &st.seq
	r.reset(st, k)
	// The removed edge was counted in an endpoint's mcd iff the other
	// endpoint's core is at least as large (Definition 3.8).
	if cv >= cu {
		r.doMCD(st, u)
	}
	if cu >= cv {
		r.doMCD(st, v)
	}
	r.propagate(st)
	// Dropped vertices changed list and position; their d⁺out is
	// recomputed from the settled order (their neighbors' flips were
	// applied at drop time).
	for _, w := range r.vstar {
		st.RecomputeDout(w)
	}
	return RemoveStats{Applied: true, VStar: len(r.vstar), Changed: r.vstar}
}

// doMCD decrements x's mcd for one lost qualifying neighbor; when the mcd
// falls below the core number, x's core drops to k-1 and x joins V* and the
// propagation queue (Algorithm 8, DoMCD).
//
// The drop moves x from O_k to the tail of O_{k-1} at once, as pcore's does:
// the drops cascade in a valid peeling order at level k-1 (a vertex drops
// only after the neighbors whose drops caused it). Just before the move,
// every level-k neighbor that precedes x in O_k loses its out-edge to x,
// which now precedes it. That is exact for every vertex that does not drop:
// a neighbor that drops later in the same removal has its d⁺out recomputed
// anyway, and one that dropped earlier no longer reads core k.
func (r *seqScratch) doMCD(st *State, x int32) {
	mcd := st.Mcd[x].Add(-1)
	cx := st.Core[x].Load()
	if mcd >= cx {
		return
	}
	if cx != r.k {
		// Only vertices at the removal level can drop (their mcd
		// stays >= core otherwise, checked by invariant tests).
		panic("core: mcd fell below core away from removal level")
	}
	// Publish t before the core drop: concurrent CheckMCD readers (in
	// the parallel version) must never observe core = k-1 with t = 0 for
	// an in-flight vertex.
	st.T[x].Store(DropStatus(r.k, 2))
	for _, y := range st.G.Adj(x) {
		if st.Core[y].Load() == r.k && r.list.Order(y, x) {
			st.Dout[y].Add(-1)
		}
	}
	st.Relocate(x, r.k, r.k-1, Tail)
	st.Mcd[x].Store(McdEmpty)
	r.vstar = append(r.vstar, x)
	r.rq = append(r.rq, x)
}

// propagate drains the queue: every dequeued vertex walks its neighbors at
// the removal level, refreshing and decrementing their mcd (Algorithm 8
// lines 8-16 with a single worker, so the redo branch t > 0 never fires).
func (r *seqScratch) propagate(st *State) {
	for head := 0; head < len(r.rq); head++ {
		w := r.rq[head]
		st.T[w].Add(-1) // 2 -> 1: propagating
		for _, x := range st.G.Adj(w) {
			if st.Core[x].Load() != r.k {
				continue
			}
			if st.Mcd[x].Load() == McdEmpty {
				// computeMCD counts w via the in-flight rule
				// (core = k-1, dropping from k), so the
				// decrement below is always backed by a
				// counted neighbor.
				st.Mcd[x].Store(st.computeMCD(x))
			}
			r.doMCD(st, x)
		}
		st.T[w].Store(0) // 1 -> idle: done
	}
}
