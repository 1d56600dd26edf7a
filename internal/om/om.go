// Package om implements the two-level Order-Maintenance (OM) data structure
// of Dietz–Sleator / Bender et al. used by the Simplified-Order and
// Parallel-Order core maintenance algorithms (paper §3.4, [26], [37-39]).
//
// A List maintains a total order of items under three operations:
//
//   - Order(x, y): does x precede y? O(1), lock-free.
//   - InsertAfter(x, y): insert y right after x. Amortized O(1), locked.
//   - Delete(x): remove x. O(1), locked.
//
// Two more serve passes over a whole quiescent list: NewListOf lays a
// sequence out in one pass, and Positions compares positions without the
// seqlock.
//
// Items are int32 ids. Their records live in a Slab shared by every List
// built on it — four parallel arrays indexed by id, 16 bytes an id, no
// pointers — and an id sits in at most one of those lists at a time: moving
// an item between lists is Delete from one and InsertAfter into the other.
// Each List keeps its own sentinel under a reserved id.
//
// Items are stored in bottom-level groups; groups form the top-level list.
// Every item carries a bottom label (its position inside its group) and every
// group carries a top label. x precedes y iff (Lt(x), Lb(x)) < (Lt(y), Lb(y))
// lexicographically. The two levels have their own label spans: a top label
// orders every group of the list and takes 62 bits, while a bottom label
// orders at most a group's capacity of items and takes 32 — the Θ(log n)
// bits a two-level list needs there. When an insertion finds no label space,
// a relabel is triggered: a group with no bottom-label gap at the insertion
// point is renumbered evenly, a full group splits in two, and when there is
// no top-label gap for the new group, successor group labels are rebalanced
// with the j² threshold walk described in the paper. Groups are per-list
// records addressed by int32 index, kept in fixed-size pages that never move;
// a list's table of pages grows by a share of itself, in chunks.
//
// Concurrency contract (matching the parallel OM of [26] at the granularity
// discussed in DESIGN.md): structural operations (InsertAfter, Delete, and
// the relabels they trigger) serialize on a per-list mutex; Order is
// lock-free and validates its label reads against a seqlock-style version
// counter that relabels bump (odd while a relabel is in flight). Callers that
// move an item between lists must prevent concurrent Order calls on that item
// via their own protocol — the core maintenance algorithms do this with the
// per-vertex status counter s (Algorithm 6). Slab.Grow runs alone.
package om

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/grow"
)

const (
	// labelSpan bounds top (group) labels: they live in [0, labelSpan), so
	// midpoint insertion never overflows uint64.
	labelSpan uint64 = 1 << 62
	// bottomSpan bounds bottom (item) labels, which live in [0, bottomSpan)
	// and are stored in 32 bits. A group holds at most groupCap items, so
	// an even renumbering leaves gaps of at least bottomSpan/(groupCap+1):
	// about 26 midpoint insertions at one spot of a fresh group before the
	// group is renumbered. Midpoints are computed in uint64.
	bottomSpan uint64 = 1 << 32

	// DefaultGroupCap is the default maximum number of items per group.
	// The paper sizes groups at Θ(log N); 48 covers N well beyond 10^9
	// while keeping splits cheap.
	DefaultGroupCap = 48

	// none is the null item and group index; a free id's group reads none.
	none int32 = -1
	// sentinel is the reserved id of each list's own head anchor. It is
	// the first item of group 0 for the list's whole life.
	sentinel int32 = -2

	// A group page holds 1<<pageBits group records of 24 bytes.
	pageBits = 5
	pageMask = 1<<pageBits - 1
	// A full group table grows by 1/tableGrowDiv of its pages (at least
	// one), allocated as one chunk and published with one table header.
	tableGrowDiv = 2
)

// Slab holds the item records of every List built on it: id x's bottom
// label, list neighbours and group index, 16 bytes in four parallel arrays.
type Slab struct {
	label      []atomic.Uint32
	prev, next []int32
	group      []atomic.Int32 // index into the holding list's groups, or none
}

// NewSlab returns a slab of n free ids, 0..n-1.
func NewSlab(n int) *Slab {
	s := &Slab{}
	s.Grow(n)
	return s
}

// Grow extends the slab to at least n ids; the new ones are free. The
// arrays may move, so no List built on the slab may be in use.
func (s *Slab) Grow(n int) {
	old := len(s.group)
	if n <= old {
		return
	}
	s.label = grow.Slice(s.label, n)
	s.prev = grow.Slice(s.prev, n)
	s.next = grow.Slice(s.next, n)
	s.group = grow.Slice(s.group, n)
	for x := old; x < n; x++ {
		s.group[x].Store(none)
	}
}

// InList reports whether id x is currently linked into a list.
func (s *Slab) InList(x int32) bool { return s.group[x].Load() != none }

type group struct {
	label      atomic.Uint64
	prev, next int32 // top-level neighbours; next also chains the free groups
	first      int32 // first item of the group in list order
	count      int32
}

type groupPage [1 << pageBits]group

// List is an order-maintenance list over a Slab. Use NewList to create one.
type List struct {
	s   *Slab
	mu  sync.Mutex
	ver atomic.Uint64 // seqlock: odd while a relabel is in progress

	// pages is the group table. A split may append a chunk of pages;
	// pages never move, so a lock-free reader holding an older table reads
	// live groups.
	pages  atomic.Pointer[[]*groupPage]
	groups int32 // group records handed out so far
	free   int32 // first emptied group awaiting reuse by split, or none

	headLabel atomic.Uint32 // the sentinel's bottom label
	head      int32         // the sentinel's successor
	last      int32         // last item in list order (the sentinel if empty)
	groupCap  int32
	size      int    // number of user items (sentinel excluded)
	relabels  uint64 // splits and bottom renumbers, read by the tests
	renumbers uint64 // bottom renumbers outside a split, read by the tests
}

// NewList returns an empty list over s whose groups hold at most groupCap
// items; groupCap <= 0 selects DefaultGroupCap.
func NewList(s *Slab, groupCap int) *List {
	return sizedList(s, groupCap, 1)
}

// sizedList is NewList with a group table sized for the given number of
// groups.
func sizedList(s *Slab, groupCap, groups int) *List {
	l := &List{s: s, groupCap: capOf(groupCap), free: none, head: none, last: sentinel}
	l.pages.Store(&[]*groupPage{})
	l.addPages((groups + pageMask) >> pageBits)
	g := l.grp(l.newGroup()) // group 0
	g.prev, g.next = none, none
	g.first, g.count = sentinel, 1
	return l
}

// NewListOf returns a list over s holding items, which must be free, in the
// given order. It lays the list out in one pass, with no lock and no split:
// each group holds half its capacity, as every group but the last does after
// appending the items one by one, so insertions into the new list split
// groups as often as into an appended one; the relabelling code then spreads
// the top and bottom labels evenly.
func NewListOf(s *Slab, groupCap int, items []int32) *List {
	half := capOf(groupCap) / 2
	// The sentinel and the items fill groups of half each.
	l := sizedList(s, groupCap, (len(items)+int(half))/int(half))
	g, gr := int32(0), l.grp(0)
	prev := sentinel
	for _, x := range items {
		if s.group[x].Load() != none {
			panic("om: NewListOf of item already in a list")
		}
		if gr.count == half {
			ng := l.newGroup()
			n := l.grp(ng)
			n.prev, n.next = g, none
			n.first, n.count = x, 0
			gr.next = ng
			g, gr = ng, n
		}
		s.group[x].Store(g)
		s.prev[x], s.next[x] = prev, none
		*l.nextp(prev) = x
		gr.count++
		prev = x
	}
	l.last = prev
	l.size = len(items)
	l.renumberAllGroups()
	for g := int32(0); g != none; g = l.grp(g).next {
		l.renumberGroupLocked(l.grp(g))
	}
	return l
}

// capOf returns the group capacity a list built with groupCap uses.
func capOf(groupCap int) int32 {
	if groupCap <= 0 {
		return DefaultGroupCap
	}
	return int32(max(groupCap, 4))
}

// grp returns group g's record; for holders of l.mu, whose g is always
// one of this list's.
func (l *List) grp(g int32) *group {
	return &(*l.pages.Load())[g>>pageBits][g&pageMask]
}

// newGroup hands out an unlinked group record: an emptied one if any,
// else a fresh one, growing the table when it is full. Caller holds l.mu
// and, once the list exists, an odd seqlock — a lock-free reader may still
// hold the index of an emptied group.
func (l *List) newGroup() int32 {
	if g := l.free; g != none {
		l.free = l.grp(g).next
		return g
	}
	if n := len(*l.pages.Load()); int(l.groups) == n<<pageBits {
		l.addPages(max(1, n/tableGrowDiv))
	}
	l.groups++
	return l.groups - 1
}

// addPages appends n fresh pages, allocated as one chunk, to the group
// table and publishes the longer table. A reader of the older table never
// reads past its length, so appending into its spare capacity is safe.
func (l *List) addPages(n int) {
	chunk := make([]groupPage, n)
	pages := *l.pages.Load()
	for i := range chunk {
		pages = append(pages, &chunk[i])
	}
	l.pages.Store(&pages)
}

// groupLabel reads group g's top label in the table pages for a lock-free
// reader. g may come from an item that has meanwhile moved to another list,
// whose group indices mean nothing here and may lie past this table; the
// answer is then garbage (0 past the table), which the caller's status
// protocol discards.
func groupLabel(pages []*groupPage, g int32) uint64 {
	if p := int(g >> pageBits); p < len(pages) {
		return pages[p][g&pageMask].label.Load()
	}
	return 0
}

// label returns x's bottom label.
func (l *List) label(x int32) *atomic.Uint32 {
	if x == sentinel {
		return &l.headLabel
	}
	return &l.s.label[x]
}

// nextp returns the cell holding x's successor.
func (l *List) nextp(x int32) *int32 {
	if x == sentinel {
		return &l.head
	}
	return &l.s.next[x]
}

// groupOf returns the group index x reads, none while x is free.
func (l *List) groupOf(x int32) int32 {
	if x == sentinel {
		return 0
	}
	return l.s.group[x].Load()
}

// Len returns the number of items in the list (sentinel excluded).
func (l *List) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Version returns the current relabel version. Odd values mean a relabel is
// in progress. The versioned priority queue of Algorithm 9 uses this to keep
// cached labels coherent.
func (l *List) Version() uint64 { return l.ver.Load() }

// Order reports whether x precedes y in the list. x and y must both be
// linked into this list for the duration of the call (enforced by the
// caller's status protocol). Order is lock-free: it validates label reads
// against the relabel version and retries on interference.
func (l *List) Order(x, y int32) bool {
	if x == y {
		return false
	}
	// x and y are user ids: the sentinel's id is not exported.
	s := l.s
	for {
		v := l.ver.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		gx, gy := s.group[x].Load(), s.group[y].Load()
		if gx == none || gy == none {
			// The item is mid-move between lists; wait for the
			// caller protocol to finish reinserting it.
			runtime.Gosched()
			continue
		}
		var r bool
		if gx == gy {
			r = s.label[x].Load() < s.label[y].Load()
		} else {
			pages := *l.pages.Load()
			r = groupLabel(pages, gx) < groupLabel(pages, gy)
		}
		if l.ver.Load() == v {
			return r
		}
	}
}

// Positions reads the positions of a quiescent list's items: it skips
// Order's seqlock validation, so it is only for passes during which no
// InsertAfter, Delete or relabel runs on the list. A pass that compares many
// items against one takes the one's Key once and asks After for the rest.
type Positions struct {
	group []atomic.Int32
	label []atomic.Uint32
	pages []*groupPage
}

// Positions returns the position reader of l.
func (l *List) Positions() Positions {
	return Positions{group: l.s.group, label: l.s.label, pages: *l.pages.Load()}
}

// Key is an item's position: its group and that group's top label, and its
// bottom label.
type Key struct {
	top    uint64
	group  int32
	bottom uint32
}

// Key returns the position of x, which must be linked into the list.
func (p *Positions) Key(x int32) Key {
	g := p.group[x].Load()
	return Key{top: p.pages[g>>pageBits][g&pageMask].label.Load(), group: g, bottom: p.label[x].Load()}
}

// After reports whether x, which must be linked into the list, follows the
// item at position k. It reads x's bottom label only when x shares k's
// group, and the group's top label only when it does not.
func (p *Positions) After(x int32, k Key) bool {
	g := p.group[x].Load()
	if g == k.group {
		return p.label[x].Load() > k.bottom
	}
	return p.pages[g>>pageBits][g&pageMask].label.Load() > k.top
}

// Labels returns a snapshot (top label, bottom label) of x plus the list
// version the snapshot was taken at. ok is false when the snapshot raced
// with a relabel or the item is not in a list; callers should retry or mark
// their cache dirty (Algorithm 10).
func (l *List) Labels(x int32) (lt, lb, ver uint64, ok bool) {
	v := l.ver.Load()
	if v&1 == 1 {
		return 0, 0, v, false
	}
	g := l.s.group[x].Load()
	if g == none {
		return 0, 0, v, false
	}
	lt = groupLabel(*l.pages.Load(), g)
	lb = uint64(l.s.label[x].Load())
	if l.ver.Load() != v {
		return 0, 0, v, false
	}
	return lt, lb, v, true
}

// InsertAfter inserts the free item y immediately after x, which must be in
// this list. Amortized O(1); may trigger a split and a top-label rebalance.
func (l *List) InsertAfter(x, y int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.insertAfterLocked(x, y)
}

func (l *List) insertAfterLocked(x, y int32) {
	s := l.s
	if s.group[y].Load() != none {
		panic("om: InsertAfter of item already in a list")
	}
	g := l.groupOf(x)
	if g == none {
		panic("om: InsertAfter anchor not in a list")
	}
	if l.grp(g).count >= l.groupCap {
		l.split(g)
		g = l.groupOf(x)
	}
	// Bottom-label space between x and its successor within the group.
	nx := *l.nextp(x)
	bound := bottomSpan
	if nx != none && s.group[nx].Load() == g {
		bound = uint64(s.label[nx].Load())
	}
	if bound-uint64(l.label(x).Load()) < 2 {
		l.renumberGroup(g)
		if nx != none && s.group[nx].Load() == g {
			bound = uint64(s.label[nx].Load())
		} else {
			bound = bottomSpan
		}
	}
	xl := uint64(l.label(x).Load())
	s.label[y].Store(uint32(xl + (bound-xl)/2))
	s.group[y].Store(g)
	s.prev[y] = x
	s.next[y] = nx
	if nx != none {
		s.prev[nx] = y
	}
	*l.nextp(x) = y
	if l.last == x {
		l.last = y
	}
	l.grp(g).count++
	l.size++
}

// InsertAtHead inserts y as the first item of the list.
func (l *List) InsertAtHead(y int32) { l.InsertAfter(sentinel, y) }

// InsertAtTail appends y as the last item of the list.
func (l *List) InsertAtTail(y int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.insertAfterLocked(l.last, y)
}

// Delete unlinks x from the list. x becomes free and may be reinserted into
// any list on the same slab. O(1). Deleting the sentinel panics.
func (l *List) Delete(x int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if x == sentinel {
		panic("om: Delete of sentinel")
	}
	s := l.s
	g := s.group[x].Load()
	if g == none {
		panic("om: Delete of item not in a list")
	}
	gr := l.grp(g)
	px, nx := s.prev[x], s.next[x]
	if gr.first == x {
		if nx != none && s.group[nx].Load() == g {
			gr.first = nx
		} else {
			gr.first = none
		}
	}
	*l.nextp(px) = nx
	if nx != none {
		s.prev[nx] = px
	}
	if l.last == x {
		l.last = px
	}
	gr.count--
	if gr.count == 0 {
		// Unlink the now-empty group (group 0 always retains the
		// sentinel, so g has a predecessor) and keep it for split.
		l.grp(gr.prev).next = gr.next
		if gr.next != none {
			l.grp(gr.next).prev = gr.prev
		}
		gr.next = l.free
		l.free = g
	}
	s.prev[x], s.next[x] = none, none
	s.group[x].Store(none)
	l.size--
}

// split divides the full group g in two, moving its upper half into a fresh
// group inserted right after g, then renumbers bottom labels of both halves.
// Caller holds l.mu.
func (l *List) split(g int32) {
	l.ver.Add(1) // seqlock: enter relabel
	defer l.ver.Add(1)
	l.relabels++

	// Ensure top-label space after g. The local j²-walk rebalance makes
	// room in the common case; when g sits at the very top of the label
	// space (repeated tail splits halve the headroom until it is gone,
	// and the walk finds no successors to spread) fall back to an even
	// renumbering of every group.
	gr := l.grp(g)
	bound := l.boundAfter(gr)
	if bound-gr.label.Load() < 2 {
		l.rebalance(g)
		bound = l.boundAfter(gr)
		if bound-gr.label.Load() < 2 {
			l.renumberAllGroups()
			bound = l.boundAfter(gr)
		}
	}
	gl := gr.label.Load()
	n := l.newGroup()
	ng := l.grp(n)
	ng.label.Store(gl + (bound-gl)/2)
	ng.prev = g
	ng.next = gr.next
	if gr.next != none {
		l.grp(gr.next).prev = n
	}
	gr.next = n

	// Move the upper half of g's items into ng.
	keep := max(gr.count/2, 1)
	it := gr.first
	for i := int32(1); i < keep; i++ {
		it = *l.nextp(it)
	}
	moved := gr.count - keep
	first := *l.nextp(it)
	ng.first = first
	ng.count = moved
	gr.count = keep
	for m, i := first, int32(0); i < moved; m, i = l.s.next[m], i+1 {
		l.s.group[m].Store(n)
	}
	l.renumberGroupLocked(gr)
	l.renumberGroupLocked(ng)
}

// boundAfter returns the top label of gr's successor, or labelSpan.
func (l *List) boundAfter(gr *group) uint64 {
	if gr.next == none {
		return labelSpan
	}
	return l.grp(gr.next).label.Load()
}

// renumberGroup evenly redistributes the bottom labels of g's items. Caller
// holds l.mu; wraps the seqlock for callers outside a relabel.
func (l *List) renumberGroup(g int32) {
	l.ver.Add(1)
	defer l.ver.Add(1)
	l.relabels++
	l.renumbers++
	l.renumberGroupLocked(l.grp(g))
}

func (l *List) renumberGroupLocked(gr *group) {
	if gr.count == 0 {
		return
	}
	gap := bottomSpan / uint64(gr.count+1)
	lb := gap
	// The sentinel must keep the smallest label in its group; even
	// distribution starting at `gap` preserves relative order, and the
	// sentinel, being first, receives the smallest label anyway.
	for it, i := gr.first, int32(0); i < gr.count; it, i = *l.nextp(it), i+1 {
		l.label(it).Store(uint32(lb))
		lb += gap
	}
}

// rebalance makes top-label room after g using the paper's walk: traverse
// successors g' until L(g') − L(g) > j² (j groups walked), then spread the
// walked groups' labels evenly in the opened range, walking them a second
// time rather than keeping a list of them. Caller holds l.mu and the seqlock
// is already odd.
func (l *List) rebalance(g int32) {
	base := l.grp(g).label.Load()
	walked := uint64(0)
	cur := l.grp(g).next
	bound := labelSpan
	for cur != none {
		j := walked + 1
		if lc := l.grp(cur).label.Load(); lc-base > j*j {
			bound = lc
			break
		}
		walked++
		cur = l.grp(cur).next
	}
	if walked == 0 {
		// Immediate successor already has a j²-sized gap; nothing to
		// move (the caller re-reads labels).
		return
	}
	gap := (bound - base) / (walked + 1)
	if gap < 2 {
		// Label space after g is exhausted locally; renumber every
		// group evenly across the whole span. Rare fallback.
		l.renumberAllGroups()
		return
	}
	lb := base + gap
	for w, i := l.grp(g).next, uint64(0); i < walked; w, i = l.grp(w).next, i+1 {
		l.grp(w).label.Store(lb)
		lb += gap
	}
}

// renumberAllGroups redistributes all group labels evenly across the label
// span. O(#groups); only reached when local rebalancing has no room.
func (l *List) renumberAllGroups() {
	n := 0
	for g := int32(0); g != none; g = l.grp(g).next {
		n++
	}
	gap := labelSpan / uint64(n+1)
	lb := uint64(0)
	for g := int32(0); g != none; g = l.grp(g).next {
		l.grp(g).label.Store(lb)
		lb += gap
	}
}

// Check validates every structural invariant of the list and returns the
// items in order (sentinel excluded). For tests.
func (l *List) Check() ([]int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.s
	if l.grp(0).first != sentinel {
		return nil, fmt.Errorf("om: head group does not anchor sentinel")
	}
	var items []int32
	seenItems := 0
	linked := int32(0)
	var prevGroupLabel uint64
	lastItem := none
	for g := int32(0); g != none; g = l.grp(g).next {
		gr := l.grp(g)
		linked++
		if g != 0 && gr.label.Load() <= prevGroupLabel {
			return nil, fmt.Errorf("om: group labels not increasing (%d after %d)", gr.label.Load(), prevGroupLabel)
		}
		prevGroupLabel = gr.label.Load()
		if gr.count <= 0 {
			return nil, fmt.Errorf("om: empty group linked in list")
		}
		if gr.next != none && l.grp(gr.next).prev != g {
			return nil, fmt.Errorf("om: broken group back-link")
		}
		it := gr.first
		var prevLabel uint32
		for i := int32(0); i < gr.count; i++ {
			if it == none {
				return nil, fmt.Errorf("om: group count exceeds items")
			}
			if l.groupOf(it) != g {
				return nil, fmt.Errorf("om: item %d has wrong group index", it)
			}
			if i > 0 && l.label(it).Load() <= prevLabel {
				return nil, fmt.Errorf("om: bottom labels not increasing at item %d", it)
			}
			prevLabel = l.label(it).Load()
			if it != sentinel {
				items = append(items, it)
			}
			seenItems++
			lastItem = it
			nx := *l.nextp(it)
			if nx != none && s.prev[nx] != it {
				return nil, fmt.Errorf("om: broken item back-link at %d", it)
			}
			it = nx
		}
		if it != none && s.group[it].Load() == g {
			return nil, fmt.Errorf("om: group count smaller than items")
		}
	}
	if seenItems != l.size+1 {
		return nil, fmt.Errorf("om: size %d does not match walked %d", l.size, seenItems-1)
	}
	if l.last != lastItem {
		return nil, fmt.Errorf("om: stale last item")
	}
	for g := l.free; g != none; g = l.grp(g).next {
		linked++
	}
	if linked != l.groups {
		return nil, fmt.Errorf("om: %d groups linked or free, %d handed out", linked, l.groups)
	}
	return items, nil
}
