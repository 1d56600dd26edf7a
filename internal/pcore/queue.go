package pcore

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/om"
)

// pqEntry caches a vertex with the [Lt, Lb, s] snapshot taken at enqueue
// time (§5): the labels order the heap, the status s detects stale
// positions at dequeue.
type pqEntry struct {
	v      int32
	lt, lb uint64
	s      uint32
}

func (a pqEntry) less(b pqEntry) bool {
	if a.lt != b.lt {
		return a.lt < b.lt
	}
	return a.lb < b.lb
}

// pqueue is the private min-priority queue Q_p of one insertion worker. It
// is single-owner: only its worker touches it, so the queue itself needs no
// locks; all synchronization happens through the OM list version and the
// per-vertex status counters. The queue lives on its worker across
// operations (reset re-aims it at a level); membership is the mQueued flag
// in the worker's marks, which also tell it which vertices the worker
// already holds.
type pqueue struct {
	st    *core.State
	m     *Metrics
	mk    *marks
	k     int32
	list  *om.List
	es    []pqEntry // binary min-heap on (lt, lb)
	ver   uint64
	dirty bool // Q.ver = ∅ in the paper: labels must be re-snapshotted
}

// reset empties the queue and aims it at level k. The caller resets the
// marks.
func (q *pqueue) reset(k int32) {
	q.k = k
	q.list = q.st.List(k)
	q.es = keep(q.es)
	q.ver = q.list.Version()
	q.dirty = q.ver&1 == 1
}

// contains reports whether v currently sits in the queue.
func (q *pqueue) contains(v int32) bool { return q.mk.has(v, mQueued) }

func (q *pqueue) push(e pqEntry) {
	q.es = append(q.es, e)
	i := len(q.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.es[i].less(q.es[parent]) {
			break
		}
		q.es[i], q.es[parent] = q.es[parent], q.es[i]
		i = parent
	}
}

// pop removes the minimum entry.
func (q *pqueue) pop() {
	n := len(q.es) - 1
	q.mk.unset(q.es[0].v, mQueued)
	q.es[0] = q.es[n]
	q.es = q.es[:n]
	q.siftDown(0)
}

func (q *pqueue) siftDown(i int) {
	n := len(q.es)
	for {
		min := i
		if l := 2*i + 1; l < n && q.es[l].less(q.es[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && q.es[r].less(q.es[min]) {
			min = r
		}
		if min == i {
			return
		}
		q.es[i], q.es[min] = q.es[min], q.es[i]
		i = min
	}
}

// enqueue adds v with a label/status snapshot (Algorithm 10). If the
// snapshot raced with a relabel or an order change, the queue is marked
// dirty and lazily rebuilt at the next dequeue.
func (q *pqueue) enqueue(v int32) {
	if q.contains(v) {
		return
	}
	q.mk.set(v, mQueued)
	s := q.st.S[v].Load()
	lt, lb, ver, ok := q.list.Labels(v)
	q.push(pqEntry{v: v, lt: lt, lb: lb, s: s})
	if !ok || ver != q.ver || s&1 == 1 || q.st.S[v].Load() != s {
		q.dirty = true
	}
}

// refresh re-snapshots every entry at one consistent list version
// (Algorithm 9, update_version). Entries whose vertex left core level k are
// dropped — they would be discarded at dequeue anyway.
func (q *pqueue) refresh() {
	q.m.QueueRebuilds++
	for {
		ver := q.list.Version()
		if ver&1 == 1 {
			runtime.Gosched()
			continue
		}
		stable := true
		w := 0
		for _, e := range q.es {
			if q.st.Core[e.v].Load() != q.k {
				q.mk.unset(e.v, mQueued) // promoted by another worker; drop
				continue
			}
			s := q.st.S[e.v].Load()
			if s&1 == 1 {
				stable = false
				break
			}
			lt, lb, lver, ok := q.list.Labels(e.v)
			if !ok || lver != ver || q.st.S[e.v].Load() != s {
				stable = false
				break
			}
			q.es[w] = pqEntry{v: e.v, lt: lt, lb: lb, s: s}
			w++
		}
		if !stable || q.list.Version() != ver {
			runtime.Gosched()
			continue
		}
		q.es = q.es[:w]
		for i := w/2 - 1; i >= 0; i-- {
			q.siftDown(i)
		}
		q.ver = ver
		q.dirty = false
		return
	}
}

// dequeue pops the vertex with minimal k-order whose core number is still k,
// returning it LOCKED (Algorithm 11). Vertices the worker already holds
// (members of V+, marked mStar or mDone) are discarded defensively rather
// than self-deadlocked on. ok is false when no qualifying vertex remains.
func (q *pqueue) dequeue() (int32, bool) {
	for len(q.es) > 0 {
		if q.dirty {
			q.refresh()
			continue
		}
		e := q.es[0]
		if own := q.mk.has(e.v, mStar|mDone); own || q.st.Core[e.v].Load() != q.k {
			if traceFn != nil {
				traceFn("q=%p discard %d (own=%v core=%d k=%d)", q.st, e.v, own, q.st.Core[e.v].Load(), q.k)
			}
			q.pop()
			continue
		}
		// Conditional lock: busy-wait only while v can still be a
		// candidate at level k; abort if another worker promotes it.
		if !q.st.Locks[e.v].LockIf(func() bool { return q.st.Core[e.v].Load() == q.k }) {
			q.m.LockAborts++
			if traceFn != nil {
				traceFn("q=%p lockif-abort %d (core=%d k=%d)", q.st, e.v, q.st.Core[e.v].Load(), q.k)
			}
			q.pop()
			continue
		}
		// Locked. If v's order changed since the snapshot, the heap
		// may have served the wrong minimum: release and rebuild.
		if q.st.S[e.v].Load() != e.s {
			q.st.Locks[e.v].Unlock()
			q.dirty = true
			continue
		}
		q.pop()
		return e.v, true
	}
	return 0, false
}

// ---- tracing (test support) ----

// traceFn, when non-nil, receives a formatted event line from the worker
// code paths. Installed only by tests; nil in production use.
var traceFn func(format string, args ...any)

// traceRepair is the event format of one batch-end d⁺out recomputation.
const traceRepair = "repair dout[%d]"
