package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
)

func TestNewStateInitialDout(t *testing.T) {
	// Path 0-1-2-3: BZ peels endpoints first; every vertex's dout must
	// equal its count of later neighbors and be <= its core (1).
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	st := NewState(g)
	for v := int32(0); v < 4; v++ {
		if d := st.Dout[v].Load(); d > st.CoreOf(v) {
			t.Fatalf("dout[%d] = %d > core %d", v, d, st.CoreOf(v))
		}
	}
	mustCheck(t, st, "path init")
}

func TestGrowMintsIsolatedVertices(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	st := NewState(g)
	walk, labels := kOrder(t, st, 3)

	st.Grow(8)
	if st.N() != 8 || st.G.N() != 8 {
		t.Fatalf("N=%d G.N=%d, want 8", st.N(), st.G.N())
	}
	st.Grow(4) // never shrinks
	if st.N() != 8 {
		t.Fatalf("Grow(4) shrank to %d", st.N())
	}
	for v := int32(3); v < 8; v++ {
		if c := st.CoreOf(v); c != 0 {
			t.Fatalf("new vertex %d has core %d, want 0", v, c)
		}
		if m := st.Mcd[v].Load(); m != McdEmpty {
			t.Fatalf("new vertex %d has mcd %d, want empty", v, m)
		}
		if !st.slab.InList(v) {
			t.Fatalf("new vertex %d not linked into O_0", v)
		}
	}
	// Growth may move the OM slab, but not the k-order: the pre-growth
	// vertices keep their walk and their labels.
	walk2, labels2 := kOrder(t, st, 3)
	if !slices.Equal(walk, walk2) {
		t.Fatalf("Grow changed the k-order of the old vertices: %v, was %v", walk2, walk)
	}
	if !slices.Equal(labels, labels2) {
		t.Fatalf("Grow relabeled the old vertices: %v, was %v", labels2, labels)
	}
	mustCheck(t, st, "after growth")

	// The grown universe must be fully maintainable: wire new vertices in,
	// spanning old and new ranges, then drop some again.
	for _, e := range []graph.Edge{{U: 2, V: 5}, {U: 5, V: 6}, {U: 6, V: 2}, {U: 7, V: 0}} {
		st.InsertEdgeSeq(e.U, e.V)
	}
	mustCheck(t, st, "edges into grown range")
	st.RemoveEdgeSeq(5, 6)
	mustCheck(t, st, "removal in grown range")
}

// kOrder walks O_0, O_1, … and returns the vertices below n in k-order,
// each with its (top, bottom) labels.
func kOrder(t *testing.T, st *State, n int32) ([]int32, [][2]uint64) {
	t.Helper()
	var walk []int32
	var labels [][2]uint64
	for k := int32(0); k <= st.MaxCoreValue(); k++ {
		items, err := st.List(k).Check()
		if err != nil {
			t.Fatalf("O_%d: %v", k, err)
		}
		for _, v := range items {
			if v < n {
				lt, lb, _, _ := st.List(k).Labels(v)
				walk = append(walk, v)
				labels = append(labels, [2]uint64{lt, lb})
			}
		}
	}
	return walk, labels
}

// TestStateFootprint prices what NewState keeps per vertex on a ring, where
// every vertex sits in O_2: six 4-byte scalar arrays, a 16-byte OM slab
// record and about a byte of OM groups. It reads the process's live heap,
// so it must not run beside other tests.
func TestStateFootprint(t *testing.T) {
	const n = 1 << 17
	edges := make([]graph.Edge, n)
	for v := range edges {
		edges[v] = graph.Edge{U: int32(v), V: int32((v + 1) % n)}
	}
	g := graph.MustFromEdges(n, edges)
	before := liveHeap()
	st := NewState(g)
	after := liveHeap()
	runtime.KeepAlive(st)
	perVertex := float64(int64(after)-int64(before)) / n
	t.Logf("NewState keeps %.1f B per vertex", perVertex)
	if perVertex > 44 {
		t.Fatalf("NewState keeps %.1f B per vertex, want <= 44", perVertex)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestGrowAmortizedReallocation(t *testing.T) {
	st := NewState(graph.MustFromEdges(1, nil))
	// Many small grows: the geometric over-allocation must keep total
	// reallocation work bounded, and every intermediate state valid.
	for n := 2; n <= 4096; n *= 2 {
		st.Grow(n + 3)
		st.InsertEdgeSeq(int32(n), int32(n+1))
	}
	mustCheck(t, st, "after repeated growth")
}

func TestBeforeSeqConsistentWithCores(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle: core 2
		{U: 3, V: 4}, // edge: core 1
	})
	st := NewState(g)
	// Lower core always precedes higher core.
	for _, lo := range []int32{3, 4} {
		for _, hi := range []int32{0, 1, 2} {
			if !st.BeforeSeq(lo, hi) || st.BeforeSeq(hi, lo) {
				t.Fatalf("core-1 vertex %d must precede core-2 vertex %d", lo, hi)
			}
		}
	}
	// Irreflexive and antisymmetric within one level.
	if st.BeforeSeq(0, 0) {
		t.Fatal("BeforeSeq must be irreflexive")
	}
	if st.BeforeSeq(0, 1) == st.BeforeSeq(1, 0) {
		t.Fatal("BeforeSeq must be antisymmetric")
	}
}

func TestBeforeMatchesBeforeSeqAtQuiescence(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 9)
	st := NewState(g)
	for u := int32(0); u < 100; u += 7 {
		for v := int32(1); v < 100; v += 11 {
			if u == v {
				continue
			}
			if st.Before(u, v) != st.BeforeSeq(u, v) {
				t.Fatalf("Before and BeforeSeq disagree on (%d,%d)", u, v)
			}
		}
	}
}

// Before must wait out an odd order-change status rather than return a
// half-updated comparison.
func TestBeforeWaitsForOrderChange(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	st := NewState(g)
	st.BeginOrderChange(0)
	done := make(chan bool, 1)
	go func() {
		done <- st.Before(0, 2) // must block until the change ends
	}()
	select {
	case <-done:
		t.Fatal("Before returned while the order change was in flight")
	default:
	}
	st.EndOrderChange(0)
	<-done // must complete now
}

func TestListGrowth(t *testing.T) {
	st := NewState(graph.New(2))
	if st.MaxCoreValue() != 0 {
		t.Fatalf("initial max core value %d", st.MaxCoreValue())
	}
	l5 := st.List(5)
	if l5 == nil || st.MaxCoreValue() != 5 {
		t.Fatalf("growth failed: max=%d", st.MaxCoreValue())
	}
	if st.List(3) == nil || st.List(5) != l5 {
		t.Fatal("grown lists must be stable")
	}
}

func TestListGrowthConcurrent(t *testing.T) {
	st := NewState(graph.New(2))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int32(0); k < 64; k++ {
				if st.List(k) == nil {
					panic("nil list")
				}
			}
		}(w)
	}
	wg.Wait()
	if st.MaxCoreValue() < 63 {
		t.Fatalf("max core value %d", st.MaxCoreValue())
	}
}

func TestComputeMCDDefinition(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle: cores 2
		{U: 0, V: 3}, {U: 3, V: 4}, // tail: cores 1
	})
	st := NewState(g)
	// Vertex 0 (core 2): neighbors 1,2 (core 2 >= 2) and 3 (core 1): mcd 2.
	if got := st.ComputeMCD(0); got != 2 {
		t.Fatalf("mcd(0) = %d, want 2", got)
	}
	// Vertex 3 (core 1): neighbors 0 (core 2) and 4 (core 1): mcd 2.
	if got := st.ComputeMCD(3); got != 2 {
		t.Fatalf("mcd(3) = %d, want 2", got)
	}
	// In-flight rule: a neighbor mid-drop from cu (core = cu-1, t in
	// flight from cu) counts.
	st.T[1].Store(DropStatus(2, 2))
	st.Core[1].Store(1)
	if got := st.ComputeMCD(0); got != 2 {
		t.Fatalf("mcd(0) with in-flight neighbor = %d, want 2", got)
	}
	st.T[1].Store(0)
	if got := st.ComputeMCD(0); got != 1 {
		t.Fatalf("mcd(0) after neighbor settled = %d, want 1", got)
	}
}

// A drop publishes t before the lowered core number (so that no observer
// sees a dropped-but-untracked vertex). In that window the vertex still reads
// its old core k: a recount at level k+1 must not mistake it for a vertex
// that has just arrived from k+1 — it never was in the (k+1)-core — while a
// recount at level k must count it before and after the core store.
func TestComputeMCDDropStatusWindow(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle: cores 2
		{U: 0, V: 3}, {U: 3, V: 4}, // tail: cores 1
	})
	st := NewState(g)
	// Vertex 3 (core 1) begins to drop to core 0: t first.
	st.T[3].Store(DropStatus(1, 2))
	if got := st.ComputeMCD(0); got != 2 {
		t.Fatalf("level-2 recount in the window of a 1->0 drop: mcd(0) = %d, want 2", got)
	}
	if got := st.ComputeMCD(4); got != 1 {
		t.Fatalf("level-1 recount in the window: mcd(4) = %d, want 1", got)
	}
	st.Core[3].Store(0)
	if got := st.ComputeMCD(0); got != 2 {
		t.Fatalf("level-2 recount after the core store: mcd(0) = %d, want 2", got)
	}
	if got := st.ComputeMCD(4); got != 1 {
		t.Fatalf("level-1 recount of a neighbor in flight from level 1: mcd(4) = %d, want 1", got)
	}
	st.T[3].Store(0)
	if got := st.ComputeMCD(4); got != 0 {
		t.Fatalf("mcd(4) after neighbor settled = %d, want 0", got)
	}
}

func TestCoreNumbersSnapshot(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	st := NewState(g)
	snap := st.CoreNumbers()
	st.Core[0].Store(99)
	if snap[0] == 99 {
		t.Fatal("CoreNumbers must be a snapshot, not a view")
	}
}
