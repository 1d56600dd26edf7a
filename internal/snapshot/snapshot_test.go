package snapshot

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestPublishDerivesAggregates(t *testing.T) {
	var p Publisher
	if p.Current() != nil {
		t.Fatal("zero publisher must have no view")
	}
	p.Load([]int32{2, 2, 2, 1, 0}, 4, 1)
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
	p.Load([]int32{1, 1}, 1, 2)
	v2 := p.Current()
	if v2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v2.Epoch)
	}
	st := p.Stats()
	if st.Full != 2 || st.Delta != 0 || st.Unchanged != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEpochsNeverRepeat: racing publications serialize, each stamping
// the current epoch + 1, so no two share an epoch.
func TestEpochsNeverRepeat(t *testing.T) {
	var p Publisher
	p.Load([]int32{0}, 0, 1)
	var mu sync.Mutex
	seen := map[uint64]bool{1: true}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e := p.Publish(1, 0, nil, nil)
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
	if len(seen) != 401 || p.Head().Epoch != 401 {
		t.Fatalf("%d distinct epochs up to %d, want 401", len(seen), p.Head().Epoch)
	}
}

// viewEqual asserts that v carries exactly the decomposition in cores.
func viewEqual(t *testing.T, v *View, cores []int32, m int64) {
	t.Helper()
	if v.N != len(cores) || v.M != m {
		t.Fatalf("N=%d M=%d, want N=%d M=%d", v.N, v.M, len(cores), m)
	}
	var ref Publisher
	ref.Load(append([]int32(nil), cores...), m, 1)
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

// coresOf reads a flat core array the way the engines' CoreOf does.
func coresOf(cores []int32) func(int32) int32 {
	return func(v int32) int32 { return cores[v] }
}

// TestPublishDeltaMatchesFull drives Publish with raw reports as the
// engines make them — vertices repeat, some moved and came back to their
// old core within the batch, growth steps interleave with writes, and a
// lone top-core vertex moves up and back down so the top bin empties —
// and checks every View against a flat-array model: each page, Hist,
// MaxCore, N, and which PubStats kind the publication counted. Nothing
// deduplicates the reports, so a publication that patched a vertex whose
// core did not move shows as a wrong kind or a wrong dirty-page count.
func TestPublishDeltaMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cores := make([]int32, 3*PageSize+123) // four pages, short last page
	for i := range cores {
		cores[i] = rng.Int31n(8)
	}
	var p Publisher
	p.Load(slices.Clone(cores), 10, 1)
	const lone = int32(PageSize + 1) // the vertex that alone holds the top core
	for round := range 80 {
		prev := p.Current()
		before := p.Stats()
		oldN, n := len(cores), len(cores)
		if round%4 == 1 { // growth, sometimes inside the short last page
			n += 1 + rng.Intn(PageSize+PageSize/2)
			cores = append(cores, make([]int32, n-oldN)...)
		}
		oldCores := slices.Clone(cores)
		var raw []int32
		switch round % 8 {
		case 2: // only repeats of vertices that came back: writes nothing
			for range 1 + rng.Intn(6) {
				v := rng.Int31n(int32(n))
				raw = append(raw, v, v)
			}
		case 3: // a lone vertex takes a new top core, emptying no bin...
			cores[lone] = 40 + int32(round)
			raw = append(raw, lone)
		case 4: // ...and drops back, emptying the top bin
			cores[lone] = 1
			raw = append(raw, lone, lone)
		default:
			for range rng.Intn(40) {
				v := rng.Int31n(int32(n))
				raw = append(raw, v)
				if rng.Intn(4) == 0 {
					continue // moved and came back: reported, unchanged
				}
				cores[v] = rng.Int31n(12)
				if rng.Intn(3) == 0 {
					raw = append(raw, v) // moved twice in the batch
				}
			}
		}
		raw = append(raw, 0) // vertex 0 is reported whatever it did
		m := int64(100 + round)
		p.Publish(n, m, raw, coresOf(cores))
		v := p.Current()
		checkModel(t, v, cores, m)

		// The kind and the pages cloned, from the model.
		dirty := int64(0)
		for lo := 0; lo < oldN; lo += PageSize {
			if n > oldN && lo+PageSize > oldN {
				break // a short last page growth already cloned
			}
			hi := min(lo+PageSize, oldN)
			if !slices.Equal(oldCores[lo:hi], cores[lo:hi]) {
				dirty++
			}
		}
		st := p.Stats()
		want := before
		switch {
		case n > oldN:
			want.Grow++
		case dirty > 0:
			want.Delta++
		default:
			want.Unchanged++
		}
		want.DirtyPages += dirty
		want.Recycled = st.Recycled
		if st != want {
			t.Fatalf("round %d: stats %+v, want %+v", round, st, want)
		}
		if st.Unchanged > before.Unchanged && (&v.pages[0] != &prev.pages[0] || &v.Hist[0] != &prev.Hist[0]) {
			t.Fatalf("round %d: a publication that wrote nothing cloned the page table or the histogram", round)
		}
	}
	if st := p.Stats(); st.Grow == 0 || st.Delta == 0 || st.Unchanged == 0 {
		t.Fatalf("stats %+v: every kind must be exercised", st)
	}
}

// checkModel asserts that v reads exactly the flat array cores: N, M, the
// length and contents of every page, and Hist and MaxCore counted from
// cores.
func checkModel(t *testing.T, v *View, cores []int32, m int64) {
	t.Helper()
	if v.N != len(cores) || v.M != m {
		t.Fatalf("N=%d M=%d, want N=%d M=%d", v.N, v.M, len(cores), m)
	}
	for p, page := range v.pages {
		lo := p << PageBits
		if hi := min(lo+PageSize, len(cores)); !slices.Equal(page, cores[lo:hi]) {
			t.Fatalf("page %d reads wrong (len %d, want %d)", p, len(page), hi-lo)
		}
	}
	if want := (len(cores) + PageSize - 1) / PageSize; len(v.pages) != want {
		t.Fatalf("%d pages, want %d", len(v.pages), want)
	}
	hist := []int64{0}
	for _, c := range cores {
		for int(c) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[c]++
	}
	if !slices.Equal(v.Hist, hist) || int(v.MaxCore) != len(hist)-1 {
		t.Fatalf("Hist %v MaxCore %d, want %v and %d", v.Hist, v.MaxCore, hist, len(hist)-1)
	}
}

// TestPublishDeltaCopyOnWrite: clean pages must be shared with the
// previous view, dirty pages must be fresh arrays, and the old view must
// keep its values after the new one is published.
func TestPublishDeltaCopyOnWrite(t *testing.T) {
	const n = 2*PageSize + 10
	cores := make([]int32, n)
	var p Publisher
	p.Load(slices.Clone(cores), 0, 1)
	old := p.Current()
	target := int32(PageSize + 5) // page 1
	cores[target] = 3
	p.Publish(n, 1, []int32{target}, coresOf(cores))
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
	cores := make([]int32, n)
	var p Publisher
	p.Load(make([]int32, n), 0, 1)
	old := p.Current()
	a, b := int32(PageSize+5), int32(2*PageSize-1) // both on page 1
	cores[a], cores[b] = 3, 4
	p.Publish(n, 1, []int32{a, b}, coresOf(cores))
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

// TestPublishDeltaMaxCoreShrinks: removing the only max-core vertex must
// trim the histogram and lower MaxCore.
func TestPublishDeltaMaxCoreShrinks(t *testing.T) {
	cores := []int32{1, 1, 5}
	var p Publisher
	p.Load(slices.Clone(cores), 3, 1)
	cores[2] = 1
	p.Publish(3, 2, []int32{2}, coresOf(cores))
	v := p.Current()
	if v.MaxCore != 1 || len(v.Hist) != 2 || v.Hist[1] != 3 {
		t.Fatalf("view %+v hist %v", v, v.Hist)
	}
	// And growth: a new top level extends the histogram.
	cores[0] = 9
	p.Publish(3, 2, []int32{0}, coresOf(cores))
	v = p.Current()
	if v.MaxCore != 9 || len(v.Hist) != 10 || v.Hist[9] != 1 {
		t.Fatalf("view %+v hist %v", v, v.Hist)
	}
}

// TestPublishUnchangedSharesPages: a publication that writes nothing — no
// report, or one whose vertices all read their core already — must share
// the page table and the histogram themselves.
func TestPublishUnchangedSharesPages(t *testing.T) {
	cores := []int32{2, 1, 0}
	var p Publisher
	p.Load(slices.Clone(cores), 3, 1)
	old := p.Current()
	p.Publish(3, 4, nil, nil)
	p.Publish(2, 5, []int32{1, 0, 1}, coresOf(cores)) // n below N keeps it
	v := p.Current()
	if v.Epoch != old.Epoch+2 || v.M != 5 || v.N != 3 || v.MaxCore != old.MaxCore {
		t.Fatalf("view %+v", v)
	}
	if &v.pages[0] != &old.pages[0] || &v.Hist[0] != &old.Hist[0] {
		t.Fatal("unchanged publish must share the page table and the histogram")
	}
	if st := p.Stats(); st.Unchanged != 2 || st.Full != 1 || st.Delta != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPublishGrowMatchesFull: growing across page boundaries must equal a
// from-scratch load of the zero-extended core array, and a post-growth
// delta must patch the grown tail correctly.
func TestPublishGrowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cores := make([]int32, PageSize+57) // short last page
	for i := range cores {
		cores[i] = 1 + rng.Int31n(6)
	}
	var p Publisher
	p.Load(slices.Clone(cores), 10, 1)
	for _, newN := range []int{
		len(cores) + 1,  // stays inside the short page
		PageSize * 2,    // fills page 1 exactly
		PageSize*4 + 13, // fresh full + short pages
		PageSize*4 + 13, // no-op: newN == N republishes unchanged
		PageSize * 4,    // below N: never shrinks
	} {
		p.Publish(newN, 10, nil, nil)
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
	p.Publish(len(cores), 11, []int32{tail}, coresOf(cores))
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
	p.Load(slices.Clone(cores), 5, 1)
	old := p.Current()
	p.Publish(3*PageSize, 5, nil, nil)
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
	p.Load([]int32{3, 2, 1, 0}, 2, 1)
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

// TestPublishEveryPageRecycled: once warm, a delta publication that dirties
// every page of a view — here 100, more than any fixed cap would hold —
// takes every page it clones from the free list, so a burst that touches
// the whole core array allocates no page.
func TestPublishEveryPageRecycled(t *testing.T) {
	const pages = 100
	n := pages * PageSize
	cores := make([]int32, n)
	var p Publisher
	p.Load(make([]int32, n), 0, 1)
	onePerPage := make([]int32, pages)
	for i := range onePerPage {
		onePerPage[i] = int32(i * PageSize)
	}
	for round := range 4 {
		for _, v := range onePerPage {
			cores[v] = int32(round%2 + 1)
		}
		before := p.Stats()
		p.Publish(n, 0, onePerPage, coresOf(cores))
		st := p.Stats()
		if d := st.DirtyPages - before.DirtyPages; d != pages {
			t.Fatalf("round %d: %d dirty pages, want %d", round, d, pages)
		}
		// Load's pages are the caller's array, never recycled, so the
		// free list first holds pages at the third publication.
		if r := st.Recycled - before.Recycled; round >= 2 && r != pages {
			t.Fatalf("round %d: %d of %d dirty pages recycled, want all", round, r, pages)
		}
	}
	if h := p.Head(); h.MaxCore != 2 {
		t.Fatalf("max core %d, want 2", h.MaxCore)
	}
}

// TestPublishAllocsAfterHistGrowth: the histograms a rising largest core
// leaves on the free list are each too short for the next one. They must
// not hold the list's slots: once the core stops rising, a warm delta
// publication allocates its View and nothing else — its page, table and
// histogram are the ones the publication before it retired.
func TestPublishAllocsAfterHistGrowth(t *testing.T) {
	n := 2 * PageSize
	cores := make([]int32, n)
	of := coresOf(cores)
	var p Publisher
	p.Load(make([]int32, n), 0, 1)
	changed := []int32{0}
	for c := int32(1); c <= 8; c++ {
		cores[0] = c
		p.Publish(n, 0, changed, of)
	}
	flip := []int32{1}
	publish := func() {
		cores[1] ^= 1
		p.Publish(n, 0, flip, of)
	}
	publish()
	publish()
	if got := testing.AllocsPerRun(20, publish); got > 1 {
		t.Fatalf("%.1f allocations per warm delta publication, want 1 (the View)", got)
	}
}
