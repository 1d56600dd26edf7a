package core

import (
	"container/heap"

	"repro/internal/om"
)

// orderHeap is a min-heap of vertices keyed by k-order labels, the
// sequential stand-in for the versioned priority queue Q (§5). Labels are
// snapshotted at push; sequential operation never relabels concurrently, but
// a relabel triggered by this very operation's own OM inserts can invalidate
// them, so the heap re-reads labels when the list version changed.
type orderHeap struct {
	st   *State
	list *om.List
	ver  uint64
	vs   []int32
	lt   []uint64
	lb   []uint64
}

func newOrderHeap(st *State, list *om.List) *orderHeap {
	return &orderHeap{st: st, list: list, ver: list.Version()}
}

func (h *orderHeap) Len() int { return len(h.vs) }
func (h *orderHeap) Less(i, j int) bool {
	if h.lt[i] != h.lt[j] {
		return h.lt[i] < h.lt[j]
	}
	return h.lb[i] < h.lb[j]
}
func (h *orderHeap) Swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.lt[i], h.lt[j] = h.lt[j], h.lt[i]
	h.lb[i], h.lb[j] = h.lb[j], h.lb[i]
}
func (h *orderHeap) Push(x any) {
	v := x.(int32)
	lt, lb, _, _ := h.list.Labels(v)
	h.vs = append(h.vs, v)
	h.lt = append(h.lt, lt)
	h.lb = append(h.lb, lb)
}
func (h *orderHeap) Pop() any {
	n := len(h.vs) - 1
	v := h.vs[n]
	h.vs, h.lt, h.lb = h.vs[:n], h.lt[:n], h.lb[:n]
	return v
}

func (h *orderHeap) push(v int32) {
	h.refreshIfStale()
	heap.Push(h, v)
}

func (h *orderHeap) pop() int32 {
	h.refreshIfStale()
	return heap.Pop(h).(int32)
}

// refreshIfStale re-snapshots every cached label and re-heapifies when the
// underlying list relabeled since the last snapshot — the sequential version
// of Algorithm 9's update_version.
func (h *orderHeap) refreshIfStale() {
	v := h.list.Version()
	if v == h.ver {
		return
	}
	h.ver = v
	for i, vtx := range h.vs {
		lt, lb, _, _ := h.list.Labels(vtx)
		h.lt[i], h.lb[i] = lt, lb
	}
	heap.Init(h)
}

// insertRun carries the per-operation scratch state of one sequential edge
// insertion: V*, V+, the candidate in-degrees d*in, the priority queue Q and
// the Backward queue R.
type insertRun struct {
	st     *State
	k      int32
	q      *orderHeap
	inQ    map[int32]bool
	vstar  []int32 // candidate set in discovery (= k-) order
	inStar map[int32]bool
	din    map[int32]int32 // d*in of the members of V*
	done   map[int32]bool  // V+ \ V*: confirmed non-candidates, final
	vplus  []int32
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
	run := &insertRun{
		st:     st,
		k:      k,
		q:      newOrderHeap(st, st.List(k)),
		inQ:    map[int32]bool{},
		inStar: map[int32]bool{},
		din:    map[int32]int32{},
		done:   map[int32]bool{},
	}
	w := u
	for {
		// d*in(w): predecessors of w currently in V* (Algorithm 7
		// line 9). The position check matters: an evicted vertex is
		// repositioned after the Backward trigger, so a V* member is
		// not automatically a predecessor of every later dequeue.
		din := int32(0)
		for _, x := range st.G.Adj(w) {
			if run.inStar[x] && st.BeforeSeq(x, w) {
				din++
			}
		}
		switch {
		case din+st.Dout[w].Load() > k:
			run.forward(w, din)
		case din > 0:
			run.backward(w, din)
		default:
			// w cannot be in V+; skip.
		}
		next, ok := run.dequeue()
		if !ok {
			break
		}
		w = next
	}
	run.commit()
	stats := InsertStats{Applied: true, VPlus: len(run.vplus)}
	for _, x := range run.vstar {
		if run.inStar[x] {
			stats.Changed = append(stats.Changed, x)
		}
	}
	stats.VStar = len(stats.Changed)
	return stats
}

// dequeue pops the smallest-k-order vertex with core number k, discarding
// entries whose core changed (cannot happen sequentially, kept for symmetry
// with Algorithm 11).
func (r *insertRun) dequeue() (int32, bool) {
	for r.q.Len() > 0 {
		v := r.q.pop()
		delete(r.inQ, v)
		if r.st.Core[v].Load() != r.k || r.done[v] || r.inStar[v] {
			continue
		}
		return v, true
	}
	return 0, false
}

// forward adds w, with candidate in-degree din, to V* and schedules its
// same-core successors (Algorithm 7, Forward).
func (r *insertRun) forward(w, din int32) {
	st := r.st
	r.vstar = append(r.vstar, w)
	r.inStar[w] = true
	r.din[w] = din
	r.vplus = append(r.vplus, w)
	for _, x := range st.G.Adj(w) {
		if st.Core[x].Load() == r.k && !r.inQ[x] && !r.inStar[x] && !r.done[x] && st.BeforeSeq(w, x) {
			r.inQ[x] = true
			r.q.push(x)
		}
	}
}

// backward confirms w, with candidate in-degree din, ∉ V* and evicts every
// member of V* whose potential degree no longer exceeds k, repositioning
// evicted vertices after w in O_k (Algorithm 7, Backward with
// DoPre/DoPost).
func (r *insertRun) backward(w, din int32) {
	st := r.st
	list := st.List(r.k)
	r.vplus = append(r.vplus, w)
	r.done[w] = true
	pre := w
	var rq []int32
	inR := map[int32]bool{}
	r.doPre(w, &rq, inR)
	st.Dout[w].Add(din)
	for len(rq) > 0 {
		u := rq[0]
		rq = rq[1:]
		delete(r.inStar, u)
		r.done[u] = true
		r.doPre(u, &rq, inR)
		r.doPost(u, &rq, inR)
		st.BeginOrderChange(u)
		list.Delete(u)
		list.InsertAfter(pre, u)
		st.EndOrderChange(u)
		pre = u
		st.Dout[u].Add(r.din[u])
		delete(r.din, u)
	}
}

// doPre: u leaves (or never joins) V*, so each predecessor x ∈ V* loses the
// out-edge x ↦ u from its remaining out-degree; evict x when its potential
// drops to k or below.
func (r *insertRun) doPre(u int32, rq *[]int32, inR map[int32]bool) {
	st := r.st
	for _, x := range st.G.Adj(u) {
		if r.inStar[x] && st.BeforeSeq(x, u) {
			st.Dout[x].Add(-1)
			if r.din[x]+st.Dout[x].Load() <= r.k && !inR[x] {
				inR[x] = true
				*rq = append(*rq, x)
			}
		}
	}
}

// doPost: u leaves V*, so each successor x ∈ V* with a candidate in-degree
// loses the in-edge u ↦ x; evict x when its potential drops.
func (r *insertRun) doPost(u int32, rq *[]int32, inR map[int32]bool) {
	st := r.st
	for _, x := range st.G.Adj(u) {
		if r.inStar[x] && r.din[x] > 0 && st.BeforeSeq(u, x) {
			r.din[x]--
			if r.din[x]+st.Dout[x].Load() <= r.k && !inR[x] {
				inR[x] = true
				*rq = append(*rq, x)
			}
		}
	}
}

// commit promotes the surviving candidates: core k → k+1, and each vertex
// moves from O_k to the head of O_{k+1} preserving the relative
// k-order of V* (Algorithm 7 lines 14-16).
func (r *insertRun) commit() {
	st := r.st
	from := st.List(r.k)
	to := st.List(r.k + 1)
	anchor := int32(-1) // none yet: the first survivor goes to the head
	for _, w := range r.vstar {
		if !r.inStar[w] {
			continue // evicted by backward
		}
		// Stale mcd values of w and its neighbors refer to the old
		// core number; drop them for lazy recomputation.
		st.Mcd[w].Store(McdEmpty)
		for _, x := range st.G.Adj(w) {
			st.Mcd[x].Store(McdEmpty)
		}
		st.BeginOrderChange(w)
		st.Core[w].Store(r.k + 1)
		from.Delete(w)
		if anchor < 0 {
			to.InsertAtHead(w)
		} else {
			to.InsertAfter(anchor, w)
		}
		anchor = w
		st.EndOrderChange(w)
	}
}
