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
		st.Mcd[u].Store(st.ComputeMCD(u))
	}
	if st.Mcd[v].Load() == McdEmpty {
		st.Mcd[v].Store(st.ComputeMCD(v))
	}
	// The earlier endpoint loses the out-edge u ↦ v.
	if st.BeforeSeq(u, v) {
		st.Dout[u].Add(-1)
	} else {
		st.Dout[v].Add(-1)
	}
	st.G.RemoveEdge(u, v)

	run := &removeRun{st: st, k: k, starIdx: map[int32]int{}}
	// The removed edge was counted in an endpoint's mcd iff the other
	// endpoint's core is at least as large (Definition 3.8).
	if cv >= cu {
		run.doMCD(u)
	}
	if cu >= cv {
		run.doMCD(v)
	}
	run.propagate()
	run.commit()
	// Dropped vertices changed list and position; their d⁺out is
	// recomputed from the settled order (their neighbors' flips were
	// applied incrementally in commit).
	for _, w := range run.vstar {
		st.RecomputeDout(w)
	}
	// run.vstar is freshly allocated per call, so it can be handed out.
	return RemoveStats{Applied: true, VStar: len(run.vstar), Changed: run.vstar}
}

// removeRun carries the per-operation scratch state of one sequential edge
// removal: the propagation queue R and the candidate set V*.
type removeRun struct {
	st      *State
	k       int32
	rq      []int32
	vstar   []int32
	starIdx map[int32]int // discovery index within vstar
}

func (r *removeRun) inStar(x int32) bool {
	_, ok := r.starIdx[x]
	return ok
}

// doMCD decrements x's mcd for one lost qualifying neighbor; when the mcd
// falls below the core number, x's core drops to k-1 and x joins V* and the
// propagation queue (Algorithm 8, DoMCD).
func (r *removeRun) doMCD(x int32) {
	st := r.st
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
	st.Core[x].Store(r.k - 1)
	st.Mcd[x].Store(McdEmpty)
	r.starIdx[x] = len(r.vstar)
	r.vstar = append(r.vstar, x)
	r.rq = append(r.rq, x)
}

// propagate drains the queue: every dequeued vertex walks its neighbors at
// the removal level, refreshing and decrementing their mcd (Algorithm 8
// lines 8-16 with a single worker, so the redo branch t > 0 never fires).
func (r *removeRun) propagate() {
	st := r.st
	for len(r.rq) > 0 {
		w := r.rq[0]
		r.rq = r.rq[1:]
		st.T[w].Add(-1) // 2 -> 1: propagating
		for _, x := range st.G.Adj(w) {
			if st.Core[x].Load() != r.k {
				continue
			}
			if st.Mcd[x].Load() == McdEmpty {
				// ComputeMCD counts w via the in-flight rule
				// (core = k-1, dropping from k), so the
				// decrement below is always backed by a
				// counted neighbor.
				st.Mcd[x].Store(st.ComputeMCD(x))
			}
			r.doMCD(x)
		}
		st.T[w].Store(0) // 1 -> idle: done
	}
}

// commit repositions V*: every dropped vertex moves from O_k to the tail of
// O_{k-1} in discovery order — the order the drops cascaded, which is a
// valid peeling order at level k-1 (a vertex drops only after the neighbors
// whose drops caused it; appending in the old O_k order can place a late
// finisher after an early one and break d⁺out ≤ core). Each move flips the
// out-edge of every surviving level-k neighbor that used to precede w; the
// dropped vertices' own Dout is recomputed wholesale by the caller once the
// order has settled. OM deletion is deferred to this point so the old order
// is still observable for the flips.
func (r *removeRun) commit() {
	st := r.st
	if len(r.vstar) == 0 {
		return
	}
	from := st.List(r.k)
	to := st.List(r.k - 1)
	for _, w := range r.vstar {
		for _, x := range st.G.Adj(w) {
			if st.Core[x].Load() == r.k && !r.inStar(x) &&
				from.Order(x, w) {
				st.Dout[x].Add(-1)
			}
		}
		st.BeginOrderChange(w)
		from.Delete(w)
		to.InsertAtTail(w)
		st.EndOrderChange(w)
	}
}
