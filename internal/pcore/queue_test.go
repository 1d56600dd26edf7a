package pcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/core"
)

// queueState builds a state whose O_1 list holds the path vertices in a
// known order so queue behavior can be asserted precisely.
func queueState(t *testing.T, n int) *core.State {
	t.Helper()
	// A cycle: every vertex has core 1... a cycle has core 2. Use a path:
	// all cores 1, BZ peels from the endpoints inward.
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return core.NewState(graph.MustFromEdges(n, edges))
}

func drain(t *testing.T, st *core.State, q *pqueue) []int32 {
	t.Helper()
	var out []int32
	for {
		v, ok := q.dequeue()
		if !ok {
			return out
		}
		st.Locks[v].Unlock() // dequeue returns locked vertices
		out = append(out, v)
	}
}

func TestPQueueDequeuesInKOrder(t *testing.T) {
	st := queueState(t, 8)
	q := newPQueue(st, 1)
	// Enqueue in arbitrary order; dequeue must follow the k-order.
	for _, v := range []int32{3, 1, 5, 2} {
		q.enqueue(v)
	}
	got := drain(t, st, q)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !st.BeforeSeq(got[i-1], got[i]) {
			t.Fatalf("dequeue order violates k-order: %v", got)
		}
	}
}

func TestPQueueDuplicateEnqueueIgnored(t *testing.T) {
	st := queueState(t, 5)
	q := newPQueue(st, 1)
	q.enqueue(2)
	q.enqueue(2)
	q.enqueue(2)
	if got := drain(t, st, q); len(got) != 1 || got[0] != 2 {
		t.Fatalf("drained %v, want [2]", got)
	}
}

func TestPQueueContains(t *testing.T) {
	st := queueState(t, 5)
	q := newPQueue(st, 1)
	q.enqueue(3)
	if !q.contains(3) || q.contains(1) {
		t.Fatal("contains wrong")
	}
	drain(t, st, q)
	if q.contains(3) {
		t.Fatal("contains must clear after dequeue")
	}
}

func TestPQueueDiscardsPromotedVertices(t *testing.T) {
	st := queueState(t, 6)
	q := newPQueue(st, 1)
	q.enqueue(1)
	q.enqueue(2)
	// Simulate a promotion by another worker: vertex 1 leaves level 1.
	st.Relocate(1, 1, 2, core.Head)
	got := drain(t, st, q)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("drained %v, want [2] (1 was promoted)", got)
	}
}

func TestPQueueRefreshAfterRelabel(t *testing.T) {
	st := queueState(t, 6)
	q := newPQueue(st, 1)
	q.enqueue(4)
	q.enqueue(2)
	// Force relabels of O_1 by churning items at the head: position
	// changes of OTHER vertices plus version bumps.
	// Move vertex 0 back and forth within the list to churn versions.
	for i := 0; i < 500; i++ {
		st.Relocate(0, 1, 1, core.Head)
	}
	q.dirty = true // as Algorithm 10 would have marked it
	got := drain(t, st, q)
	if len(got) != 2 {
		t.Fatalf("drained %v", got)
	}
	if !st.BeforeSeq(got[0], got[1]) {
		t.Fatalf("post-relabel order wrong: %v", got)
	}
}

func TestPQueueOwnVerticesSkipped(t *testing.T) {
	st := queueState(t, 5)
	q := newPQueue(st, 1)
	q.enqueue(1)
	q.enqueue(2)
	q.mk.Set(1, core.MDone) // the worker already holds 1
	v, ok := q.dequeue()
	if !ok || v != 2 {
		t.Fatalf("got %d, want 2 (1 is own)", v)
	}
	st.Locks[2].Unlock()
}

func TestPQueueEmpty(t *testing.T) {
	st := queueState(t, 3)
	q := newPQueue(st, 1)
	if _, ok := q.dequeue(); ok {
		t.Fatal("empty queue must report !ok")
	}
}

func TestPQueueStressAgainstOrder(t *testing.T) {
	base := gen.ErdosRenyi(300, 900, 4)
	st := core.NewState(base)
	// All vertices at the modal core level.
	hist := map[int32]int{}
	for v := int32(0); v < int32(st.N()); v++ {
		hist[st.CoreOf(v)]++
	}
	var k int32
	best := 0
	for c, n := range hist {
		if n > best {
			k, best = c, n
		}
	}
	q := newPQueue(st, k)
	for v := int32(0); v < int32(st.N()); v++ {
		if st.CoreOf(v) == k {
			q.enqueue(v)
		}
	}
	var prev int32 = -1
	for {
		v, ok := q.dequeue()
		if !ok {
			break
		}
		st.Locks[v].Unlock()
		if prev >= 0 && !st.BeforeSeq(prev, v) {
			t.Fatalf("order violated: %d before %d", prev, v)
		}
		prev = v
	}
}
