package om

import (
	"math/rand"
	"testing"
)

// checkAgainst verifies l against the reference order ref: Check passes, the
// walk is ref, and Order and the Positions reader answer like ref's indices
// for every adjacent pair and for sampled ones.
func checkAgainst(t *testing.T, l *List, ref []int32, rng *rand.Rand, context string) {
	t.Helper()
	walk, err := l.Check()
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if len(walk) != len(ref) || l.Len() != len(ref) {
		t.Fatalf("%s: walk has %d items, Len %d, want %d", context, len(walk), l.Len(), len(ref))
	}
	idx := make(map[int32]int, len(ref))
	for i, x := range ref {
		if walk[i] != x {
			t.Fatalf("%s: position %d holds %d, want %d", context, i, walk[i], x)
		}
		idx[x] = i
	}
	p := l.Positions()
	pair := func(a, b int32) {
		want := idx[a] < idx[b]
		if got := l.Order(a, b); got != want {
			t.Fatalf("%s: Order(%d, %d) = %v, want %v", context, a, b, got, want)
		}
		if got := p.After(b, p.Key(a)); got != want {
			t.Fatalf("%s: After(%d, Key(%d)) = %v, want %v", context, b, a, got, want)
		}
	}
	for i := 1; i < len(ref); i++ {
		pair(ref[i-1], ref[i])
		pair(ref[i], ref[i-1])
	}
	for k := 0; k < 2000 && len(ref) >= 2; k++ {
		a, b := ref[rng.Intn(len(ref))], ref[rng.Intn(len(ref))]
		if a != b {
			pair(a, b)
		}
	}
}

// NewListOf lays a sequence out in one pass. At every size around a group's
// capacity, and at one far above it, the built list must be sound and in
// input order, and then behave like a list built item by item: a random run
// of InsertAfter and Delete calls, and a hotspot of insertions after one
// anchor that exhausts the top-label gap there, so that splits must
// rebalance the groups that follow.
func TestNewListOfAgainstReference(t *testing.T) {
	const steps, hotspot = 1500, 3000
	for _, size := range []int{0, 1, defaultGroupCap - 1, defaultGroupCap, defaultGroupCap + 1, 10_000} {
		rng := rand.New(rand.NewSource(int64(size)))
		s := NewSlab(size + steps + hotspot)
		items := make([]int32, size)
		for i, x := range rng.Perm(size) {
			items[i] = int32(x)
		}
		l := NewListOf(s, 0, items)
		ref := &refList{ids: append([]int32(nil), items...)}
		checkAgainst(t, l, ref.ids, rng, "built")
		// Half-full groups, the sentinel's included, as appends leave them.
		for g := int32(0); g != none; g = l.grp(g).next {
			if c, last := l.grp(g).count, l.grp(g).next == none; c > l.groupCap/2 || !last && c != l.groupCap/2 {
				t.Fatalf("size %d: group %d holds %d items, want %d", size, g, c, l.groupCap/2)
			}
		}
		if v := l.Version(); v != 0 {
			t.Fatalf("size %d: built list at version %d, want 0", size, v)
		}

		next := int32(size)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(ref.ids) == 0:
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
			case op < 7:
				y := next
				next++
				l.InsertAtTail(y)
				ref.ids = append(ref.ids, y)
			default:
				x := ref.ids[rng.Intn(len(ref.ids))]
				l.Delete(x)
				ref.delete(x)
			}
		}
		checkAgainst(t, l, ref.ids, rng, "churned")
		if l.Relabels() == 0 {
			t.Fatalf("size %d: the churn split no group", size)
		}

		// The hotspot inserts only, so a group linked before an insertion
		// whose top label that insertion moves was relabelled by a
		// rebalance, not handed out again.
		anchor := ref.ids[len(ref.ids)/2]
		rebalanced := false
		for i := 0; i < hotspot; i++ {
			var tops map[int32]uint64
			if !rebalanced {
				tops = map[int32]uint64{}
				for g := int32(0); g != none; g = l.grp(g).next {
					tops[g] = l.grp(g).label.Load()
				}
			}
			l.InsertAfter(anchor, next)
			ref.insertAfter(anchor, next)
			next++
			for g, top := range tops {
				rebalanced = rebalanced || l.grp(g).label.Load() != top
			}
		}
		checkAgainst(t, l, ref.ids, rng, "hotspot")
		if !rebalanced {
			t.Fatalf("size %d: the hotspot rebalanced no group", size)
		}
	}
}

func TestNewListOfRejectsLinkedItem(t *testing.T) {
	s := NewSlab(2)
	NewListOf(s, 0, []int32{0})
	defer func() {
		if recover() == nil {
			t.Fatal("NewListOf of a linked item must panic")
		}
	}()
	NewListOf(s, 0, []int32{1, 0})
}
