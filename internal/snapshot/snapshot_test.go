package snapshot

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPublishDerivesAggregates(t *testing.T) {
	var p Publisher
	if p.Current() != nil {
		t.Fatal("zero publisher must have no view")
	}
	p.Publish([]int32{2, 2, 2, 1, 0}, 4)
	v := p.Current()
	if v.Epoch != 1 || v.N != 5 || v.M != 4 || v.MaxCore != 2 {
		t.Fatalf("view %+v", v)
	}
	if v.Hist[2] != 3 || v.Hist[1] != 1 || v.Hist[0] != 1 {
		t.Fatalf("hist %v", v.Hist)
	}
	if p.Current() != v {
		t.Fatal("Current must return the published view")
	}
	for i, want := range []int32{2, 2, 2, 1, 0} {
		if got := v.CoreOf(int32(i)); got != want {
			t.Fatalf("CoreOf(%d) = %d, want %d", i, got, want)
		}
	}
	if got := v.CoresInto(nil); len(got) != 5 || got[0] != 2 || got[4] != 0 {
		t.Fatalf("CoresInto %v", got)
	}
	p.Publish([]int32{1, 1}, 1)
	v2 := p.Current()
	if v2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v2.Epoch)
	}
	st := p.Stats()
	if st.Full != 2 || st.Delta != 0 || st.Unchanged != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEpochsNeverRepeat(t *testing.T) {
	var p Publisher
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e := p.Publish([]int32{0}, 0)
				mu.Lock()
				if seen[e] {
					mu.Unlock()
					panic("epoch repeated")
				}
				seen[e] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 400 {
		t.Fatalf("%d distinct epochs, want 400", len(seen))
	}
}

// viewEqual asserts that v carries exactly the decomposition in cores.
func viewEqual(t *testing.T, v *View, cores []int32, m int64) {
	t.Helper()
	if v.N != len(cores) || v.M != m {
		t.Fatalf("N=%d M=%d, want N=%d M=%d", v.N, v.M, len(cores), m)
	}
	var ref Publisher
	ref.Publish(append([]int32(nil), cores...), m)
	want := ref.Current()
	got := v.CoresInto(nil)
	for i := range cores {
		if got[i] != cores[i] {
			t.Fatalf("cores[%d] = %d, want %d", i, got[i], cores[i])
		}
	}
	if v.MaxCore != want.MaxCore {
		t.Fatalf("MaxCore = %d, want %d", v.MaxCore, want.MaxCore)
	}
	if len(v.Hist) != len(want.Hist) {
		t.Fatalf("hist len = %d (%v), want %d (%v)", len(v.Hist), v.Hist, len(want.Hist), want.Hist)
	}
	for k := range v.Hist {
		if v.Hist[k] != want.Hist[k] {
			t.Fatalf("hist[%d] = %d, want %d", k, v.Hist[k], want.Hist[k])
		}
	}
}

// TestPublishDeltaMatchesFull randomly mutates core numbers across several
// pages and checks that the chain of delta publications always equals a
// from-scratch publish of the mutated array.
func TestPublishDeltaMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3*PageSize + 123 // four pages, short last page
	cores := make([]int32, n)
	for i := range cores {
		cores[i] = rng.Int31n(8)
	}
	var p Publisher
	p.Publish(append([]int32(nil), cores...), 10)
	for round := 0; round < 50; round++ {
		k := rng.Intn(40)
		changed := make([]VertexCore, 0, k+2)
		for i := 0; i < k; i++ {
			v := rng.Int31n(n)
			cores[v] = rng.Int31n(12)
			changed = append(changed, VertexCore{V: v, Core: cores[v]})
		}
		// Duplicate and no-op entries must be harmless.
		if k > 0 {
			changed = append(changed, changed[k-1])
		}
		changed = append(changed, VertexCore{V: 0, Core: cores[0]})
		p.PublishDelta(changed, int64(100+round))
		v := p.Current()
		viewEqual(t, v, cores, int64(100+round))
	}
	if st := p.Stats(); st.Delta != 50 {
		t.Fatalf("delta publishes = %d, want 50", st.Delta)
	}
}

// TestPublishDeltaCopyOnWrite: clean pages must be shared with the
// previous view, dirty pages must be fresh arrays, and the old view must
// keep its values after the new one is published.
func TestPublishDeltaCopyOnWrite(t *testing.T) {
	const n = 2*PageSize + 10
	cores := make([]int32, n)
	var p Publisher
	p.Publish(append([]int32(nil), cores...), 0)
	old := p.Current()
	target := int32(PageSize + 5) // page 1
	p.PublishDelta([]VertexCore{{V: target, Core: 3}}, 1)
	nv := p.Current()
	if &nv.pages[0][0] != &old.pages[0][0] || &nv.pages[2][0] != &old.pages[2][0] {
		t.Fatal("clean pages must be shared between views")
	}
	if &nv.pages[1][0] == &old.pages[1][0] {
		t.Fatal("dirty page must be cloned, not patched in place")
	}
	if old.CoreOf(target) != 0 || nv.CoreOf(target) != 3 {
		t.Fatalf("old=%d new=%d, want 0/3", old.CoreOf(target), nv.CoreOf(target))
	}
	if st := p.Stats(); st.DirtyPages != 1 {
		t.Fatalf("dirty pages = %d, want 1", st.DirtyPages)
	}
}

// TestPublishDeltaClonesPageOnce: two changed vertices on one page clone it
// once, and the old View's copy of that page keeps its values.
func TestPublishDeltaClonesPageOnce(t *testing.T) {
	const n = 2*PageSize + 10
	var p Publisher
	p.Publish(make([]int32, n), 0)
	old := p.Current()
	a, b := int32(PageSize+5), int32(2*PageSize-1) // both on page 1
	p.PublishDelta([]VertexCore{{V: a, Core: 3}, {V: b, Core: 4}}, 1)
	nv := p.Current()
	if st := p.Stats(); st.DirtyPages != 1 {
		t.Fatalf("dirty pages = %d, want 1", st.DirtyPages)
	}
	if nv.CoreOf(a) != 3 || nv.CoreOf(b) != 4 {
		t.Fatalf("new view: CoreOf(%d)=%d CoreOf(%d)=%d, want 3 and 4", a, nv.CoreOf(a), b, nv.CoreOf(b))
	}
	for i, c := range old.pages[1] {
		if c != 0 {
			t.Fatalf("old view's page 1 changed at offset %d: %d", i, c)
		}
	}
}

// TestBuildDeltaReusesScratch: one bit set serves consecutive calls, dedups
// within each, comes back all clear (after an n/4 bail-out too, so no later
// call sees a stale bit), and a warm call allocates nothing.
func TestBuildDeltaReusesScratch(t *testing.T) {
	const n = 1000
	seen := make([]uint64, (n+63)/64)
	coreOf := func(v int32) int32 { return v % 7 }
	allClear := func(when string) {
		t.Helper()
		for w, word := range seen {
			if word != 0 {
				t.Fatalf("%s: bit set word %d = %#x, want 0", when, w, word)
			}
		}
	}
	var buf []VertexCore
	for _, tc := range []struct {
		changed []int32
		want    []int32
	}{
		{[]int32{5, 9, 5, 63, 64, 9, 999}, []int32{5, 9, 63, 64, 999}},
		{[]int32{9, 5, 9}, []int32{9, 5}}, // the same vertices again: not stale
		{[]int32{0, 0, 0}, []int32{0}},
	} {
		delta, ok := BuildDelta(buf, seen, tc.changed, n, coreOf)
		if !ok || len(delta) != len(tc.want) {
			t.Fatalf("BuildDelta(%v) = %v, %v; want %d distinct", tc.changed, delta, ok, len(tc.want))
		}
		for i, v := range tc.want {
			if delta[i] != (VertexCore{V: v, Core: coreOf(v)}) {
				t.Fatalf("BuildDelta(%v)[%d] = %+v, want vertex %d", tc.changed, i, delta[i], v)
			}
		}
		allClear("after a delta")
		buf = delta
	}

	// n/4 distinct vertices bail out midway; every bit they set is cleared.
	huge := make([]int32, 0, n)
	for v := int32(0); v < n; v += 3 {
		huge = append(huge, v)
	}
	if delta, ok := BuildDelta(buf, seen, huge, n, coreOf); ok || delta != nil {
		t.Fatalf("%d distinct of %d vertices: got a %d-entry delta, want the fallback", len(huge), n, len(delta))
	}
	allClear("after the bail-out")
	if delta, ok := BuildDelta(buf, seen, []int32{3, 6, 3}, n, coreOf); !ok || len(delta) != 2 {
		t.Fatalf("after the bail-out: delta %v, ok %v; want vertices 3 and 6", delta, ok)
	}

	changed := []int32{1, 2, 3, 2, 1, 500}
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = BuildDelta(buf, seen, changed, n, coreOf)
	}); allocs != 0 {
		t.Fatalf("warm BuildDelta: %.1f allocations, want 0", allocs)
	}
}

// TestPublishDeltaMaxCoreShrinks: removing the only max-core vertex must
// trim the histogram and lower MaxCore.
func TestPublishDeltaMaxCoreShrinks(t *testing.T) {
	var p Publisher
	p.Publish([]int32{1, 1, 5}, 3)
	p.PublishDelta([]VertexCore{{V: 2, Core: 1}}, 2)
	v := p.Current()
	if v.MaxCore != 1 || len(v.Hist) != 2 || v.Hist[1] != 3 {
		t.Fatalf("view %+v hist %v", v, v.Hist)
	}
	// And growth: a new top level extends the histogram.
	p.PublishDelta([]VertexCore{{V: 0, Core: 9}}, 2)
	v = p.Current()
	if v.MaxCore != 9 || len(v.Hist) != 10 || v.Hist[9] != 1 {
		t.Fatalf("view %+v hist %v", v, v.Hist)
	}
}

// TestPublishUnchangedSharesPages: the O(1) path must share the page table
// itself.
func TestPublishUnchangedSharesPages(t *testing.T) {
	var p Publisher
	p.Publish([]int32{2, 1, 0}, 3)
	old := p.Current()
	p.PublishUnchanged(4)
	v := p.Current()
	if v.Epoch != old.Epoch+1 || v.M != 4 || v.MaxCore != old.MaxCore {
		t.Fatalf("view %+v", v)
	}
	if &v.pages[0][0] != &old.pages[0][0] {
		t.Fatal("unchanged publish must share pages")
	}
	if st := p.Stats(); st.Unchanged != 1 || st.Full != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPublishGrowMatchesFull: growing across page boundaries must equal a
// from-scratch publish of the zero-extended core array, and a post-growth
// delta must patch the grown tail correctly.
func TestPublishGrowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cores := make([]int32, PageSize+57) // short last page
	for i := range cores {
		cores[i] = 1 + rng.Int31n(6)
	}
	var p Publisher
	p.Publish(append([]int32(nil), cores...), 10)
	for _, newN := range []int{
		len(cores) + 1,  // stays inside the short page
		PageSize * 2,    // fills page 1 exactly
		PageSize*4 + 13, // fresh full + short pages
		PageSize*4 + 13, // no-op: newN == N republishes unchanged
		PageSize * 4,    // below N: never shrinks
	} {
		p.PublishGrow(newN, 10)
		v := p.Current()
		if newN > len(cores) {
			cores = append(cores, make([]int32, newN-len(cores))...)
		}
		viewEqual(t, v, cores, 10)
	}
	if st := p.Stats(); st.Grow != 3 || st.Unchanged != 2 {
		t.Fatalf("stats %+v, want 3 grows + 2 unchanged", st)
	}
	// Post-growth delta: patch vertices in the grown tail.
	tail := int32(len(cores) - 3)
	cores[tail] = 9
	p.PublishDelta([]VertexCore{{V: tail, Core: 9}}, 11)
	v := p.Current()
	viewEqual(t, v, cores, 11)
}

// TestPublishGrowCopyOnWrite: full old pages must be shared, the short old
// last page must be cloned before extension, and a held pre-growth view
// must keep its N, aggregates, and values.
func TestPublishGrowCopyOnWrite(t *testing.T) {
	const n = PageSize + 100
	cores := make([]int32, n)
	for i := range cores {
		cores[i] = 2
	}
	var p Publisher
	p.Publish(append([]int32(nil), cores...), 5)
	old := p.Current()
	p.PublishGrow(3*PageSize, 5)
	v := p.Current()
	if &v.pages[0][0] != &old.pages[0][0] {
		t.Fatal("full old pages must be shared")
	}
	if &v.pages[1][0] == &old.pages[1][0] {
		t.Fatal("short last page must be cloned before zero-extension")
	}
	if old.N != n || len(old.pages[1]) != 100 || old.Hist[0] != 0 {
		t.Fatalf("held view mutated: N=%d lastPage=%d hist=%v", old.N, len(old.pages[1]), old.Hist)
	}
	if v.N != 3*PageSize || v.Hist[0] != int64(3*PageSize-n) || v.Hist[2] != int64(n) || v.MaxCore != 2 {
		t.Fatalf("grown view %+v hist %v", v, v.Hist)
	}
	for _, u := range []int32{0, n - 1, n, 3*PageSize - 1} {
		want := int32(0)
		if u < n {
			want = 2
		}
		if got := v.CoreOf(u); got != want {
			t.Fatalf("CoreOf(%d) = %d, want %d", u, got, want)
		}
	}
}

func TestCoresIntoReusesBuffer(t *testing.T) {
	var p Publisher
	p.Publish([]int32{3, 2, 1, 0}, 2)
	v := p.Current()
	buf := make([]int32, 0, 16)
	out := v.CoresInto(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("CoresInto must reuse a large-enough buffer")
	}
	if len(out) != 4 || out[0] != 3 || out[3] != 0 {
		t.Fatalf("CoresInto %v", out)
	}
}
