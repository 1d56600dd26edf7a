package core

import "repro/internal/om"

// seqScratch is the per-operation scratch of the sequential engine
// (InsertEdgeSeq, RemoveEdgeSeq): the same flag table, label heap and keep
// rule a pcore worker runs on, kept on the State across operations, so a
// warm operation allocates nothing.
type seqScratch struct {
	k         int32
	mk        Marks     // Q, V*, V+ \ V*, R membership and d*in
	q         LabelHeap // Q, labels read at list version ver
	list      *om.List  // O_k
	ver       uint64
	vstar     []int32 // V* in discovery order; insertion: evicted members included
	confirmed int     // insertion: Backward triggers, the members of V+ that never joined V*
	rq        []int32 // R: Backward's eviction queue / removal's propagation queue
}

// reset empties the scratch for an operation at level k.
func (r *seqScratch) reset(st *State, k int32) {
	r.k = k
	r.mk.Reset()
	r.q = Keep(r.q)
	r.list = st.List(k)
	r.ver = r.list.Version()
	r.vstar = Keep(r.vstar)
	r.confirmed = 0
	r.rq = Keep(r.rq)
}

// push queues v with its current labels.
func (r *seqScratch) push(v int32) {
	r.refreshIfStale()
	lt, lb, _, _ := r.list.Labels(v)
	r.q.Push(LabelEntry{V: v, Lt: lt, Lb: lb})
}

// refreshIfStale re-reads every queued label and re-heapifies when the list
// relabeled since the labels were read — the sequential version of
// Algorithm 9's update_version. Sequential operation never relabels
// concurrently, but this very operation's evictions can.
func (r *seqScratch) refreshIfStale() {
	v := r.list.Version()
	if v == r.ver {
		return
	}
	r.ver = v
	for i, e := range r.q {
		r.q[i].Lt, r.q[i].Lb, _, _ = r.list.Labels(e.V)
	}
	r.q.Heapify()
}

// InsertEdgeSeq inserts the undirected edge (u, v) and restores all
// maintenance invariants with the sequential Simplified-Order algorithm
// (Algorithm 2 phrased as the lock-free specialization of Algorithm 7).
// It reports whether the edge was applied and the V+/V* sizes.
func (st *State) InsertEdgeSeq(u, v int32) InsertStats {
	if u == v || st.G.HasEdge(u, v) {
		return InsertStats{}
	}
	// Direct the edge u ↦ v in k-order.
	if st.BeforeSeq(v, u) {
		u, v = v, u
	}
	k := st.Core[u].Load()
	st.G.AddEdge(u, v)
	st.Dout[u].Add(1)
	// The new edge changes the neighborhood of both endpoints; their
	// stored mcd values are stale either way.
	st.Mcd[u].Store(McdEmpty)
	st.Mcd[v].Store(McdEmpty)
	if st.Dout[u].Load() <= k {
		return InsertStats{Applied: true}
	}
	r := &st.seq
	r.reset(st, k)
	w := u
	for {
		// d*in(w): predecessors of w currently in V* (Algorithm 7
		// line 9). The position check matters: an evicted vertex is
		// repositioned after the Backward trigger, so a V* member is
		// not automatically a predecessor of every later dequeue.
		din := int32(0)
		for _, x := range st.G.Adj(w) {
			if r.mk.Has(x, MStar) && st.BeforeSeq(x, w) {
				din++
			}
		}
		switch {
		case din+st.Dout[w].Load() > k:
			r.forward(st, w, din)
		case din > 0:
			r.backward(st, w, din)
		default:
			// w cannot be in V+; skip.
		}
		next, ok := r.dequeue(st)
		if !ok {
			break
		}
		w = next
	}
	vplus := len(r.vstar) + r.confirmed
	changed := r.promote(st)
	return InsertStats{Applied: true, VPlus: vplus, VStar: len(changed), Changed: changed}
}

// dequeue pops the smallest-k-order vertex with core number k, discarding
// entries whose core changed (cannot happen sequentially, kept for symmetry
// with Algorithm 11).
func (r *seqScratch) dequeue(st *State) (int32, bool) {
	for len(r.q) > 0 {
		r.refreshIfStale()
		v := r.q[0].V
		r.q.Pop()
		r.mk.Unset(v, MQueued)
		if st.Core[v].Load() != r.k || r.mk.Has(v, MDone|MStar) {
			continue
		}
		return v, true
	}
	return 0, false
}

// forward adds w, with candidate in-degree din, to V* and schedules its
// same-core successors (Algorithm 7, Forward).
func (r *seqScratch) forward(st *State, w, din int32) {
	r.vstar = append(r.vstar, w)
	r.mk.Set(w, MStar)
	r.mk.SetDin(w, din)
	for _, x := range st.G.Adj(w) {
		if st.Core[x].Load() == r.k && !r.mk.Has(x, MQueued|MStar|MDone) && st.BeforeSeq(w, x) {
			r.mk.Set(x, MQueued)
			r.push(x)
		}
	}
}

// backward confirms w, with candidate in-degree din, ∉ V* and evicts every
// member of V* whose potential degree no longer exceeds k, repositioning
// evicted vertices after w in O_k (Algorithm 7, Backward with
// DoPre/DoPost).
func (r *seqScratch) backward(st *State, w, din int32) {
	r.confirmed++
	r.mk.Set(w, MDone)
	pre := w
	r.rq = r.rq[:0]
	r.doPre(st, w)
	st.Dout[w].Add(din)
	for head := 0; head < len(r.rq); head++ {
		u := r.rq[head]
		r.mk.Unset(u, MStar)
		r.mk.Set(u, MDone)
		r.doPre(st, u)
		r.doPost(st, u)
		st.Relocate(u, r.k, r.k, pre)
		pre = u
		st.Dout[u].Add(r.mk.Din(u))
	}
}

// doPre: u leaves (or never joins) V*, so each predecessor x ∈ V* loses the
// out-edge x ↦ u from its remaining out-degree.
func (r *seqScratch) doPre(st *State, u int32) {
	for _, x := range st.G.Adj(u) {
		if r.mk.Has(x, MStar) && st.BeforeSeq(x, u) {
			st.Dout[x].Add(-1)
			r.evictIfSpent(st, x)
		}
	}
}

// doPost: u leaves V*, so each successor x ∈ V* with a candidate in-degree
// loses the in-edge u ↦ x.
func (r *seqScratch) doPost(st *State, u int32) {
	for _, x := range st.G.Adj(u) {
		if !r.mk.Has(x, MStar) {
			continue
		}
		if din := r.mk.Din(x); din > 0 && st.BeforeSeq(u, x) {
			r.mk.SetDin(x, din-1)
			r.evictIfSpent(st, x)
		}
	}
}

// evictIfSpent schedules the V* member x for eviction, once, when its
// potential degree d*in + d⁺out no longer exceeds k.
func (r *seqScratch) evictIfSpent(st *State, x int32) {
	if r.mk.Din(x)+st.Dout[x].Load() <= r.k && !r.mk.Has(x, MInR) {
		r.mk.Set(x, MInR)
		r.rq = append(r.rq, x)
	}
}

// promote commits the surviving candidates: core k → k+1, and each vertex
// moves from O_k to the head of O_{k+1} preserving the relative k-order of
// V* (Algorithm 7 lines 14-16). Relocate empties the mcd values the
// promotions make stale. It compacts the survivors to the front of vstar and
// returns them.
func (r *seqScratch) promote(st *State) []int32 {
	anchor := Head // the first survivor goes to the head
	n := 0
	for _, w := range r.vstar {
		if !r.mk.Has(w, MStar) {
			continue // evicted by backward
		}
		st.Relocate(w, r.k, r.k+1, anchor)
		anchor = w
		r.vstar[n] = w
		n++
	}
	return r.vstar[:n]
}
