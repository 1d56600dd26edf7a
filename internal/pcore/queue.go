package pcore

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/om"
)

// pqueue is the private min-priority queue Q_p of one insertion worker. It
// is single-owner: only its worker touches it, so the queue itself needs no
// locks; all synchronization happens through the OM list version and the
// per-vertex status counters. The queue lives on its worker across
// operations (reset re-aims it at a level); membership is the core.MQueued
// flag in the worker's marks, which also tell it which vertices the worker
// already holds. The heap itself is core.LabelHeap, which the sequential
// engine's queue uses too; what is the parallel queue's own is the version
// and status checks around it and the conditional lock at dequeue.
type pqueue struct {
	st    *core.State
	m     *Metrics
	mk    *core.Marks
	k     int32
	list  *om.List
	h     core.LabelHeap // Q_p, each entry with the [Lt, Lb, s] snapshot of its enqueue (§5)
	ver   uint64
	dirty bool // Q.ver = ∅ in the paper: labels must be re-snapshotted
}

// reset empties the queue and aims it at level k. The caller resets the
// marks.
func (q *pqueue) reset(k int32) {
	q.k = k
	q.list = q.st.List(k)
	q.h = core.Keep(q.h)
	q.ver = q.list.Version()
	q.dirty = q.ver&1 == 1
}

// contains reports whether v currently sits in the queue.
func (q *pqueue) contains(v int32) bool { return q.mk.Has(v, core.MQueued) }

// pop removes the minimum entry.
func (q *pqueue) pop() {
	q.mk.Unset(q.h[0].V, core.MQueued)
	q.h.Pop()
}

// enqueue adds v with a label/status snapshot (Algorithm 10). If the
// snapshot raced with a relabel or an order change, the queue is marked
// dirty and lazily rebuilt at the next dequeue.
func (q *pqueue) enqueue(v int32) {
	if q.contains(v) {
		return
	}
	q.mk.Set(v, core.MQueued)
	s := q.st.S[v].Load()
	lt, lb, ver, ok := q.list.Labels(v)
	q.h.Push(core.LabelEntry{V: v, Lt: lt, Lb: lb, S: s})
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
		for _, e := range q.h {
			if q.st.Core[e.V].Load() != q.k {
				q.mk.Unset(e.V, core.MQueued) // promoted by another worker; drop
				continue
			}
			s := q.st.S[e.V].Load()
			if s&1 == 1 {
				stable = false
				break
			}
			lt, lb, lver, ok := q.list.Labels(e.V)
			if !ok || lver != ver || q.st.S[e.V].Load() != s {
				stable = false
				break
			}
			q.h[w] = core.LabelEntry{V: e.V, Lt: lt, Lb: lb, S: s}
			w++
		}
		if !stable || q.list.Version() != ver {
			runtime.Gosched()
			continue
		}
		q.h = q.h[:w]
		q.h.Heapify()
		q.ver = ver
		q.dirty = false
		return
	}
}

// dequeue pops the vertex with minimal k-order whose core number is still k,
// returning it LOCKED (Algorithm 11). Vertices the worker already holds
// (members of V+, marked core.MStar or core.MDone) are discarded
// defensively rather than self-deadlocked on. ok is false when no
// qualifying vertex remains.
func (q *pqueue) dequeue() (int32, bool) {
	for len(q.h) > 0 {
		if q.dirty {
			q.refresh()
			continue
		}
		e := q.h[0]
		if own := q.mk.Has(e.V, core.MStar|core.MDone); own || q.st.Core[e.V].Load() != q.k {
			if traceFn != nil {
				traceFn("q=%p discard %d (own=%v core=%d k=%d)", q.st, e.V, own, q.st.Core[e.V].Load(), q.k)
			}
			q.pop()
			continue
		}
		// Conditional lock: busy-wait only while v can still be a
		// candidate at level k; abort if another worker promotes it.
		if !q.st.Locks[e.V].LockIf(func() bool { return q.st.Core[e.V].Load() == q.k }) {
			q.m.LockAborts++
			if traceFn != nil {
				traceFn("q=%p lockif-abort %d (core=%d k=%d)", q.st, e.V, q.st.Core[e.V].Load(), q.k)
			}
			q.pop()
			continue
		}
		// Locked. If v's order changed since the snapshot, the heap
		// may have served the wrong minimum: release and rebuild.
		if q.st.S[e.V].Load() != e.S {
			q.st.Locks[e.V].Unlock()
			q.dirty = true
			continue
		}
		q.pop()
		return e.V, true
	}
	return 0, false
}

// ---- tracing (test support) ----

// traceFn, when non-nil, receives a formatted event line from the worker
// code paths. Installed only by tests; nil in production use.
var traceFn func(format string, args ...any)

// traceRepair is the event format of one batch-end d⁺out recomputation.
const traceRepair = "repair dout[%d]"
