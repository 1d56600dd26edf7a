package om

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// newList returns a list with group cap c over a fresh slab of ids 0..n-1.
func newList(c, n int) *List { return NewList(NewSlab(n), c) }

func TestEmptyList(t *testing.T) {
	l := newList(0, 0)
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAfterSentinelOrders(t *testing.T) {
	l := newList(0, 3)
	a, b, c := int32(0), int32(1), int32(2)
	l.InsertAtHead(a)   // a
	l.InsertAfter(a, c) // a c
	l.InsertAfter(a, b) // a b c
	for _, tc := range []struct {
		x, y int32
		want bool
	}{
		{a, b, true}, {b, c, true}, {a, c, true},
		{b, a, false}, {c, b, false}, {c, a, false},
		{a, a, false},
	} {
		if got := l.Order(tc.x, tc.y); got != tc.want {
			t.Fatalf("Order(%d,%d) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAtHeadPrependsBeforeAll(t *testing.T) {
	l := newList(0, 20)
	for it := int32(0); it < 20; it++ {
		l.InsertAtHead(it)
		if it > 0 && !l.Order(it, it-1) {
			t.Fatalf("item %d must precede previously inserted head %d", it, it-1)
		}
	}
}

func TestInsertAtTailAppendsAfterAll(t *testing.T) {
	l := newList(0, 20)
	for it := int32(0); it < 20; it++ {
		l.InsertAtTail(it)
		if it > 0 && !l.Order(it-1, it) {
			t.Fatalf("tail item %d must follow %d", it, it-1)
		}
	}
	items, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it != int32(i) {
			t.Fatalf("position %d holds %d", i, it)
		}
	}
}

func TestDeleteUnlinksAndFrees(t *testing.T) {
	l := newList(0, 3)
	a, b, c := int32(0), int32(1), int32(2)
	l.InsertAtTail(a)
	l.InsertAtTail(b)
	l.InsertAtTail(c)
	l.Delete(b)
	if l.s.InList(b) {
		t.Fatal("deleted item still reports InList")
	}
	if !l.Order(a, c) {
		t.Fatal("a must still precede c")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	// b is free and can be reinserted, even into another list.
	l2 := NewList(l.s, 0)
	l2.InsertAtHead(b)
	if !l.s.InList(b) {
		t.Fatal("reinserted item must report InList")
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSentinelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := newList(0, 0)
	l.Delete(sentinel)
}

func TestDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := newList(0, 1)
	l.InsertAtHead(0)
	l.InsertAtHead(0)
}

func TestDeleteFreeItemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := newList(0, 1)
	l.Delete(0)
}

// Dense head insertion forces repeated splits and bottom renumbering with a
// tiny group cap; the order must match LIFO insertion order.
func TestManyHeadInsertsForcesSplits(t *testing.T) {
	const n = 1000
	l := newList(4, n)
	for i := int32(0); i < n; i++ {
		l.InsertAtHead(i)
	}
	got, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, it := range got {
		if it != int32(n-1-i) {
			t.Fatalf("position %d holds %d, want %d", i, it, n-1-i)
		}
	}
	if l.Relabels() == 0 {
		t.Fatal("expected relabels with group cap 4 and 1000 head inserts")
	}
}

// Always inserting after the same anchor exhausts the local bottom-label gap
// quickly and stresses renumber/split interplay.
func TestHotspotInsertAfterSameAnchor(t *testing.T) {
	const n = 2000
	l := newList(8, n+1)
	anchor := int32(0)
	l.InsertAtHead(anchor)
	for it := int32(1); it <= n; it++ {
		l.InsertAfter(anchor, it)
		if !l.Order(anchor, it) {
			t.Fatalf("anchor must precede %d", it)
		}
		if it > 1 && !l.Order(it, it-1) {
			t.Fatalf("later hotspot insert %d must precede earlier %d", it, it-1)
		}
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// reference model: a plain slice.
type refList struct{ ids []int32 }

func (r *refList) insertAfter(x, y int32) {
	if x == -1 {
		r.ids = append([]int32{y}, r.ids...)
		return
	}
	for i, id := range r.ids {
		if id == x {
			r.ids = append(r.ids[:i+1], append([]int32{y}, r.ids[i+1:]...)...)
			return
		}
	}
	panic("anchor not found")
}

func (r *refList) delete(x int32) {
	for i, id := range r.ids {
		if id == x {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			return
		}
	}
	panic("not found")
}

// Property: under a random sequence of InsertAfter/InsertAtTail/Delete, the
// OM list agrees with a reference slice, and Order agrees for random pairs.
func TestQuickAgainstReference(t *testing.T) {
	const steps = 400
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newList(4+rng.Intn(12), steps)
		ref := &refList{}
		next := int32(0)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(ref.ids) == 0: // insert after random live item or head
				y := next
				next++
				if len(ref.ids) == 0 || rng.Intn(4) == 0 {
					l.InsertAtHead(y)
					ref.insertAfter(-1, y)
				} else {
					x := ref.ids[rng.Intn(len(ref.ids))]
					l.InsertAfter(x, y)
					ref.insertAfter(x, y)
				}
			case op < 7: // tail append
				y := next
				next++
				l.InsertAtTail(y)
				ref.ids = append(ref.ids, y)
			default: // delete
				x := ref.ids[rng.Intn(len(ref.ids))]
				l.Delete(x)
				ref.delete(x)
			}
		}
		got, err := l.Check()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(got) != len(ref.ids) {
			return false
		}
		for i, it := range got {
			if it != ref.ids[i] {
				t.Logf("seed %d: position %d = %d, want %d", seed, i, it, ref.ids[i])
				return false
			}
		}
		// Order agrees with reference positions for sampled pairs.
		pos := map[int32]int{}
		for i, id := range ref.ids {
			pos[id] = i
		}
		for k := 0; k < 100 && len(ref.ids) >= 2; k++ {
			a := ref.ids[rng.Intn(len(ref.ids))]
			b := ref.ids[rng.Intn(len(ref.ids))]
			if a == b {
				continue
			}
			if l.Order(a, b) != (pos[a] < pos[b]) {
				t.Logf("seed %d: Order(%d,%d) disagrees", seed, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: labels exposed via Labels are lexicographically consistent with
// Order for every adjacent pair after arbitrary churn.
func TestQuickLabelMonotonicity(t *testing.T) {
	const n = 300
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newList(4, n)
		for it := int32(0); it < n; it++ {
			if it == 0 || rng.Intn(2) == 0 {
				l.InsertAtHead(it)
			} else {
				l.InsertAfter(rng.Int31n(it), it)
			}
		}
		ordered, err := l.Check()
		if err != nil {
			return false
		}
		var plt, plb uint64
		for i, it := range ordered {
			lt, lb, _, ok := l.Labels(it)
			if !ok {
				return false
			}
			if i > 0 && !(plt < lt || (plt == lt && plb < lb)) {
				t.Logf("seed %d: labels not increasing at %d", seed, i)
				return false
			}
			plt, plb = lt, lb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// idPool hands out free ids of a slab and takes them back.
type idPool struct{ free []int32 }

func newIDPool(first, n int32) *idPool {
	p := &idPool{}
	for x := first + n - 1; x >= first; x-- {
		p.free = append(p.free, x)
	}
	return p
}

func (p *idPool) get() int32 {
	x := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return x
}

func (p *idPool) put(x int32) { p.free = append(p.free, x) }

// Concurrent readers calling Order while one writer churns inserts/deletes:
// the lock-free Order must never return results that contradict a pair whose
// relative position is pinned for the whole test.
func TestConcurrentOrderDuringChurn(t *testing.T) {
	const n = 4096
	l := newList(4, n)
	lo, hi := int32(0), int32(1)
	l.InsertAtHead(hi)
	l.InsertAtHead(lo) // lo before hi, forever
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violated atomic.Bool
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !l.Order(lo, hi) || l.Order(hi, lo) {
					violated.Store(true)
				}
			}
		}()
	}
	// Writer: churn items between lo and hi, forcing relabels.
	rng := rand.New(rand.NewSource(1))
	ids := newIDPool(2, n-2)
	var churn []int32
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if (len(churn) < 200 || rng.Intn(2) == 0) && len(ids.free) > 0 {
			it := ids.get()
			l.InsertAfter(lo, it)
			churn = append(churn, it)
		} else {
			i := rng.Intn(len(churn))
			l.Delete(churn[i])
			ids.put(churn[i])
			churn[i] = churn[len(churn)-1]
			churn = churn[:len(churn)-1]
		}
	}
	close(stop)
	wg.Wait()
	if violated.Load() {
		t.Fatal("order of pinned pair violated")
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// A split may append a group page, or reuse a group that Delete emptied,
// while lock-free readers hold group indices of the older table. Readers
// loop Order/Labels over stable items, which never change places; one writer
// inserts right behind them (the hotspot), so splits keep carrying stable
// items into new groups, until the page table has been replaced at least
// three times. It then deletes the inserted items, emptying groups onto the
// free list, and inserts them again, splitting into the emptied groups.
// Every answer on the stable items must agree with the final walk.
func TestConcurrentOrderDuringGroupGrowth(t *testing.T) {
	const stable, hot = 16, 4096
	l := newList(4, stable+hot)
	for x := int32(0); x < stable; x++ {
		l.InsertAtTail(x)
	}
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	var wrong atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				if i == 1 {
					ready.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				// Neighbours: a split moving both of them is where
				// a torn read would invert an answer.
				a := rng.Int31n(stable - 1)
				b := a + 1
				if !l.Order(a, b) || l.Order(b, a) {
					wrong.Add(1)
				}
				at, ab, va, oka := l.Labels(a)
				bt, bb, vb, okb := l.Labels(b)
				if oka && okb && va == vb && !(at < bt || at == bt && ab < bb) {
					wrong.Add(1)
				}
			}
		}(r)
	}
	ready.Wait()
	pages := func() int { return len(*l.pages.Load()) }

	anchor := func(x int32) int32 { return x % stable }
	next := int32(stable)
	for pages() < 4 {
		if next == stable+hot {
			t.Fatalf("%d inserts grew the group table to only %d pages", hot, pages())
		}
		l.InsertAfter(anchor(next), next)
		next++
	}
	// This goroutine is the only writer, so it may read the group
	// counters between its own calls.
	reused := 0
	for round := 0; round < 20; round++ {
		for x := int32(stable); x < next; x++ {
			l.Delete(x)
		}
		if l.free == none {
			t.Fatal("deleting the hotspot emptied no group")
		}
		for x := int32(stable); x < next; x++ {
			free, minted := l.free, l.groups
			l.InsertAfter(anchor(x), x)
			if free != none && l.groups != minted {
				t.Fatal("split minted a group while emptied ones were free")
			}
			if l.free != free {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("no split reused an emptied group")
	}
	halt()
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d Order/Labels answers on stable items disagreed with their order", n)
	}
	walk, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(-1)
	for _, x := range walk {
		if x < stable {
			if x != prev+1 {
				t.Fatalf("final walk has stable item %d after %d", x, prev)
			}
			prev = x
		}
	}
	if prev != stable-1 {
		t.Fatalf("final walk ends its stable items at %d", prev)
	}
}

// Growing the slab moves its arrays, not the order: items sitting in three
// lists keep their walk and labels, and can move between lists afterwards.
func TestSlabGrowKeepsLists(t *testing.T) {
	s := NewSlab(300)
	lists := []*List{NewList(s, 4), NewList(s, 4), NewList(s, 4)}
	for x := int32(0); x < 300; x++ {
		lists[x%3].InsertAtTail(x)
	}
	type labels struct{ lt, lb uint64 }
	before := map[int32]labels{}
	var walks [3][]int32
	for i, l := range lists {
		walk, err := l.Check()
		if err != nil {
			t.Fatal(err)
		}
		walks[i] = walk
		for _, x := range walk {
			lt, lb, _, _ := l.Labels(x)
			before[x] = labels{lt, lb}
		}
	}

	s.Grow(1000)
	for x := int32(300); x < 1000; x++ {
		if s.InList(x) {
			t.Fatalf("grown id %d is not free", x)
		}
	}
	for i, l := range lists {
		walk, err := l.Check()
		if err != nil {
			t.Fatalf("list %d after growth: %v", i, err)
		}
		if len(walk) != len(walks[i]) {
			t.Fatalf("list %d: %d items after growth, %d before", i, len(walk), len(walks[i]))
		}
		for j, x := range walk {
			if x != walks[i][j] {
				t.Fatalf("list %d position %d: %d after growth, %d before", i, j, x, walks[i][j])
			}
			if lt, lb, _, _ := l.Labels(x); (labels{lt, lb}) != before[x] {
				t.Fatalf("item %d relabeled by growth", x)
			}
		}
	}

	// Cross-list moves, old ids and new: every third item of list 0 moves
	// to list 1's head, and the grown ids fill list 2 behind its old items.
	for j := 0; j < len(walks[0]); j += 3 {
		lists[0].Delete(walks[0][j])
		lists[1].InsertAtHead(walks[0][j])
	}
	for x := int32(300); x < 1000; x++ {
		lists[2].InsertAtTail(x)
	}
	total := 0
	for i, l := range lists {
		walk, err := l.Check()
		if err != nil {
			t.Fatalf("list %d after moves: %v", i, err)
		}
		total += len(walk)
	}
	if total != 1000 {
		t.Fatalf("lists hold %d items, want 1000", total)
	}
}

// Concurrent writers on the same list must serialize correctly.
func TestConcurrentInsertDelete(t *testing.T) {
	const workers, perWorker = 8, 300
	l := newList(8, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int32
			for i := 0; i < perWorker; i++ {
				if len(mine) == 0 || rng.Intn(3) > 0 {
					it := int32(w*perWorker + i)
					if rng.Intn(2) == 0 {
						l.InsertAtHead(it)
					} else {
						l.InsertAtTail(it)
					}
					mine = append(mine, it)
				} else {
					j := rng.Intn(len(mine))
					l.Delete(mine[j])
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionIsEvenAtQuiescence(t *testing.T) {
	l := newList(4, 500)
	for i := int32(0); i < 500; i++ {
		l.InsertAtHead(i)
	}
	if v := l.Version(); v&1 != 0 {
		t.Fatalf("version %d is odd at quiescence", v)
	}
}

func TestLabelsReportsNotOKForFreeItem(t *testing.T) {
	l := newList(0, 1)
	if _, _, _, ok := l.Labels(0); ok {
		t.Fatal("Labels of a free item must not be ok")
	}
}

func BenchmarkOrder(b *testing.B) {
	const n = 1024
	l := newList(0, n)
	for i := int32(0); i < n; i++ {
		l.InsertAtTail(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Order(int32(i%n), int32((i*7+13)%n))
	}
}

// BenchmarkAblationLockFreeOrder compares the lock-free Order operation
// against a mutex-guarded equivalent under concurrent readers — the paper's
// reason for adopting the lock-free comparison (§3.4).
func BenchmarkAblationLockFreeOrder(b *testing.B) {
	const n = 4096
	l := newList(0, n)
	for x := int32(0); x < n; x++ {
		l.InsertAtTail(x)
	}
	b.Run("LockFree", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				l.Order(int32(i%n), int32((i*7+13)%n))
				i++
			}
		})
	})
	var mu sync.Mutex
	b.Run("Mutexed", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.Lock()
				l.Order(int32(i%n), int32((i*7+13)%n))
				mu.Unlock()
				i++
			}
		})
	})
}

func BenchmarkInsertDeleteHead(b *testing.B) {
	l := newList(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAtHead(0)
		l.Delete(0)
	}
}

func BenchmarkInsertTailChurn(b *testing.B) {
	l := newList(0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAtTail(int32(i))
	}
}

// Regression: repeated tail appends with a tiny group cap drive group labels
// toward the top of the label space; splits there must renumber rather than
// mint duplicate group labels (which silently corrupt Order).
func TestTailSplitLabelExhaustion(t *testing.T) {
	const n = 2000
	l := newList(4, n)
	for i := int32(0); i < n; i++ {
		l.InsertAtTail(i)
	}
	walk, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(walk); i++ {
		if !l.Order(walk[i-1], walk[i]) {
			t.Fatalf("Order disagrees with walk at position %d (%d vs %d)", i, walk[i-1], walk[i])
		}
		if l.Order(walk[i], walk[i-1]) {
			t.Fatalf("Order not antisymmetric at position %d", i)
		}
	}
	// Labels strictly increase lexicographically across the whole list.
	var plt, plb uint64
	for i, it := range walk {
		lt, lb, _, ok := l.Labels(it)
		if !ok {
			t.Fatalf("labels not ok at %d", i)
		}
		if i > 0 && !(plt < lt || (plt == lt && plb < lb)) {
			t.Fatalf("labels not increasing at position %d: (%d,%d) after (%d,%d)", i, lt, lb, plt, plb)
		}
		plt, plb = lt, lb
	}
}

// Regression: interleaved head and tail churn with deletions must keep
// Order consistent with the walk (exercises rebalance fallbacks).
func TestHeadTailChurnOrderConsistency(t *testing.T) {
	const steps = 5000
	l := newList(4, steps)
	rng := rand.New(rand.NewSource(5))
	var live []int32
	next := int32(0)
	for step := 0; step < steps; step++ {
		switch {
		case len(live) < 10 || rng.Intn(3) > 0:
			it := next
			next++
			if rng.Intn(2) == 0 {
				l.InsertAtTail(it)
			} else {
				l.InsertAtHead(it)
			}
			live = append(live, it)
		default:
			i := rng.Intn(len(live))
			l.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	walk, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(walk); i++ {
		if !l.Order(walk[i-1], walk[i]) {
			t.Fatalf("Order disagrees with walk at position %d", i)
		}
	}
}

// Relabels returns the number of relabel events (splits and rebalances) the
// list has performed.
func (l *List) Relabels() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.relabels
}

// A list's group table grows by a share of itself, so growing one list by 64
// pages takes a few table chunks, not one page and one table header each.
func TestGroupTableGrowthAllocs(t *testing.T) {
	const groups = 65 << pageBits // one page at NewList, 64 grown
	s := NewSlab(4 * groups)
	allocs := testing.AllocsPerRun(1, func() {
		l := NewList(s, 4)
		n := int32(0)
		for ; l.groups < groups; n++ {
			l.InsertAtTail(n)
		}
		for x := int32(0); x < n; x++ {
			l.Delete(x)
		}
	})
	t.Logf("growing one list by 64 pages: %.0f allocations", allocs)
	if allocs > 40 {
		t.Fatalf("growing one list by 64 pages allocates %.0f times, want <= 40", allocs)
	}
}

// NewListOf sizes its group table once, for exactly the groups it lays out.
func TestNewListOfTableExact(t *testing.T) {
	for _, size := range []int{0, 23, 24, 100, 767, 768, 5000} {
		s := NewSlab(size)
		items := make([]int32, size)
		for i := range items {
			items[i] = int32(i)
		}
		l := NewListOf(s, 0, items)
		if got, want := len(*l.pages.Load()), int(l.groups+pageMask)>>pageBits; got != want {
			t.Fatalf("size %d: %d groups in %d pages, want %d", size, l.groups, got, want)
		}
	}
}

// Bottom labels take 32 bits, so a fresh group allows about 26 midpoint
// insertions at one spot before it must be renumbered. One list at the
// default group capacity takes 100 000 head insertions, 100 000 insertions
// after one fixed anchor, and then 100 000 moves of an item of the anchor's
// group to right after the anchor — the pattern of an eviction, which keeps
// the group's count and so halves one gap until it is exhausted — with a
// full Check every 1 000 operations.
func TestBottomLabelExhaustion(t *testing.T) {
	const n = 100_000
	if testing.Short() {
		t.Skip("300 full checks of a 200 000-item list")
	}
	l := newList(0, 2*n)
	check := func(phase string, i int) {
		if i%1000 != 0 {
			return
		}
		if _, err := l.Check(); err != nil {
			t.Fatalf("%s, operation %d: %v", phase, i, err)
		}
	}
	phase := func(name string, ops func(i int)) {
		before := l.renumbers
		for i := 1; i <= n; i++ {
			ops(i)
			check(name, i)
		}
		t.Logf("%s: %d group renumbers, %.5f per operation", name, l.renumbers-before, float64(l.renumbers-before)/n)
	}
	phase("head insertions", func(i int) { l.InsertAtHead(int32(i - 1)) })
	anchor := int32(n / 2)
	phase("insertions after one anchor", func(i int) { l.InsertAfter(anchor, int32(n+i-1)) })
	renumbered := l.renumbers
	s := l.s
	phase("moves after one anchor", func(int) {
		// The item two after the anchor, in the anchor's group, moves
		// in between the anchor and its successor.
		g := s.group[anchor].Load()
		x := s.next[s.next[anchor]]
		if s.group[x].Load() != g {
			t.Fatalf("anchor %d has fewer than two successors in its group", anchor)
		}
		l.Delete(x)
		l.InsertAfter(anchor, x)
	})
	if l.renumbers == renumbered {
		t.Fatal("100 000 moves after one anchor never renumbered its group")
	}
	if _, err := l.Check(); err != nil {
		t.Fatal(err)
	}
}
