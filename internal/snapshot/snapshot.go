// Package snapshot provides epoch-versioned immutable views of a core
// decomposition. The serving layer publishes a View at batch quiescence;
// queries load the current View through an atomic pointer and never touch
// live engine state, so reads are lock-free and never block behind an
// in-flight batch.
//
// Core numbers are stored in fixed-size pages behind a page table. A
// Publisher makes a View one of two ways: Load builds it from a core array
// in O(n), and Publish derives it copy-on-write from the current one. A
// Publish grows the universe when asked, then clones only the pages a
// batch's changed set V* dirtied and patches the histogram by the
// per-vertex (oldCore, newCore) moves, so it costs O(|V*| + dirtyPages ·
// PageSize + n/PageSize), never O(n). It reads each reported vertex's
// old core from its page and skips a vertex whose core did not move, so a
// raw report with repeats needs no dedup pass, and a batch that moved
// nothing shares the previous View's page table and histogram.
//
// A page, page table or histogram lives through a run of epochs: it
// enters the views at epoch b and is last in the view of epoch r, which
// the next publication replaces it in. That publication retires it. A
// retired object is reclaimed once no reader can reach it: no Reader is
// pinned at an epoch in [b, r] and no View of an epoch >= b has ever
// escaped through Current. Reclaiming poisons it (pages and histograms
// filled with -1, tables cleared) and puts it on a capped free list that
// later publications take from before they allocate. The page list holds
// up to the current View's page count, so a warm publication that dirties
// every page allocates none. An object that cannot be reclaimed, or finds
// its list full, goes to the garbage collector. So a View a reader holds
// never changes while the reader may use it: for the escaping accessor Current
// that is forever, for a Reader's Pin until its Unpin.
package snapshot

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bz"
)

const (
	// PageBits is the log2 of the page size: pages hold 1024 core numbers
	// (4 KiB). Small pages bound the write amplification of scattered
	// changed sets — a delta touching p distinct pages clones p·4 KiB —
	// while the page table stays negligible (n/1024 pointers).
	PageBits = 10
	// PageSize is the number of vertices per page.
	PageSize = 1 << PageBits

	pageMask = PageSize - 1

	// The free lists' caps. The page list has none of its own: it holds
	// at most the current View's page count (reclaim), which is what the
	// largest delta publication — one that dirties every page — retires,
	// so at most one extra copy of the core array. A publication retires
	// at most one table and one histogram.
	maxFreeTables = 2
	maxFreeHists  = 2
	// pinSlots caps the Readers pinned at once; past it a Pin escapes. A
	// server connection pins only while it dispatches a burst, so what
	// counts is the connections busy at one time, not the open ones.
	pinSlots = 64
	// maxRetired caps the retired objects waiting for a pinned Reader to
	// move on; past it they go to the garbage collector, so a stuck reader
	// costs garbage, never correctness.
	maxRetired = 128

	// poison is what every entry of a reclaimed page or histogram reads: a
	// core number no View holds, so a read that outlived its pin shows.
	poison = -1
)

// Head is a View's scalar part: reading it needs no pin and blocks no
// reclamation (Publisher.Head).
type Head struct {
	// Epoch names the published state: Publish stamps the current
	// epoch + 1, and Load stamps the epoch its caller gives, which may lie
	// at or below the current one (a reload at another node's epoch).
	Epoch uint64
	// MaxCore is the largest core number (len(Hist)-1).
	MaxCore int32
	// N and M are the vertex and edge counts at publication time.
	N int
	M int64
}

// View is one immutable snapshot of a core decomposition. All fields are
// written once, before the View is published; readers must treat the
// slices as read-only.
type View struct {
	Head
	// pages is the page table: pages[p][i] is the core number of vertex
	// p·PageSize + i. The last page is short when N is not a multiple of
	// PageSize. Pages are shared between Views and never written while a
	// View that holds them can be read.
	pages [][]int32
	// Hist[k] counts the vertices with core number k; its last bin is
	// nonzero (Hist = [0] for the empty graph).
	Hist []int64
}

// CoreOf returns the core number of v: one shift+mask page lookup, O(1).
func (v *View) CoreOf(u int32) int32 {
	return v.pages[u>>PageBits][u&pageMask]
}

// CoresInto materializes the paged core array into dst, which is grown if
// its capacity is short, and returns it. Pass a slice retained across
// calls to avoid a fresh O(n) allocation per materialization.
func (v *View) CoresInto(dst []int32) []int32 {
	if cap(dst) < v.N {
		dst = make([]int32, v.N)
	} else {
		dst = dst[:v.N]
	}
	for p, pg := range v.pages {
		copy(dst[p<<PageBits:], pg)
	}
	return dst
}

// HistRangeInto computes the core histogram of the id range [lo, hi) —
// hist[k] = vertices in the range with core number k — appending into
// dst[:0] so repeat callers pay no allocation once the bin slice is warm.
// The range is clamped to [0, N); the result always has at least one bin
// and its last bin is nonzero unless only bin 0 is populated, matching
// Hist's shape. This is the owned-band read behind CORE.HIST lo hi: a
// shard restricted to its owned id range reports a histogram that
// excludes its mirror band, so the router's bin-wise sum counts every
// vertex exactly once. O(hi-lo) page scans.
func (v *View) HistRangeInto(dst []int64, lo, hi int32) []int64 {
	if lo < 0 {
		lo = 0
	}
	if int(hi) > v.N {
		hi = int32(v.N)
	}
	dst = append(dst[:0], 0)
	for u := lo; u < hi; {
		pg := v.pages[u>>PageBits]
		end := (u &^ pageMask) + int32(len(pg))
		if end > hi {
			end = hi
		}
		for ; u < end; u++ {
			c := pg[u&pageMask]
			for int(c) >= len(dst) {
				dst = append(dst, 0)
			}
			dst[c]++
		}
	}
	return dst
}

// PubStats counts publications by what they did. DirtyPages accumulates
// the pages Publish cloned to patch a changed vertex; DirtyPages/Delta is
// the mean write amplification of the copy-on-write path. Recycled counts
// the pages publications took from the free list instead of allocating.
type PubStats struct {
	Full       int64 // Load
	Delta      int64 // Publish that cloned a page to patch it, N unchanged
	Unchanged  int64 // Publish that wrote nothing and kept N
	Grow       int64 // Publish that raised N
	DirtyPages int64
	Recycled   int64
}

// Reader pins Views for one reader. Pin claims one of the Publisher's
// epoch slots and announces in it the epoch of the View it returns;
// objects of that View are not reclaimed until Unpin frees the slot. An
// unpinned Reader holds no slot, so idle Readers cost a publication
// nothing. One goroutine uses a Reader at a time.
type Reader struct {
	p    *Publisher
	slot *pinSlot // the claimed slot; nil when unpinned
	hint int      // the slot claimed last, tried first by the next claim
}

// pinSlot is one epoch slot; it fills its cache line, so a Reader that
// pins writes a line no other Reader writes.
type pinSlot struct {
	epoch atomic.Uint64 // the pinned epoch + 1, so a view at epoch 0 pins too; 0 when free
	_     [56]byte
}

// NewReader returns a Reader of p's Views.
func (p *Publisher) NewReader() *Reader { return &Reader{p: p} }

// Pin returns the current View (nil before the first publication) and
// keeps its pages, table and histogram from reclamation until Unpin or the
// next Pin. The epoch is announced before the View is confirmed current,
// so a publication that retires one of its objects either sees the
// announcement or makes Pin retry. When every slot is taken the View
// escapes instead (Current): still valid, never reclaimed.
func (r *Reader) Pin() *View {
	for {
		v := r.p.cur.Load()
		if v == nil {
			return nil
		}
		if r.slot != nil {
			r.slot.epoch.Store(v.Epoch + 1)
		} else if !r.claim(v.Epoch + 1) {
			return r.p.Current()
		}
		if r.p.cur.Load() == v {
			return v
		}
	}
}

// claim takes a free slot, storing e (a pinned epoch + 1) in it, starting
// from the one it took last, and raises the Publisher's count of slots in
// use so that install reads this one — both before Pin's reload of cur.
func (r *Reader) claim(e uint64) bool {
	p := r.p
	for k := range pinSlots {
		i := (r.hint + k) % pinSlots
		s := &p.slots[i]
		if s.epoch.Load() != 0 || !s.epoch.CompareAndSwap(0, e) {
			continue
		}
		r.slot, r.hint = s, i
		for hw := p.slotsUsed.Load(); hw <= int32(i); hw = p.slotsUsed.Load() {
			if p.slotsUsed.CompareAndSwap(hw, int32(i)+1) {
				break
			}
		}
		return true
	}
	return false
}

// Unpin releases the pinned View, which must not be read afterwards, and
// frees the Reader's slot. A Reader dropped while pinned keeps its slot
// for good, so Unpin before dropping one.
func (r *Reader) Unpin() {
	if r.slot != nil {
		r.slot.epoch.Store(0)
		r.slot = nil
	}
}

// retiree is one object a publication dropped from the views, waiting for
// reclamation: exactly one of page, table and hist is set, and the object
// was in the views of epochs [born, last].
type retiree struct {
	born, last uint64
	page       []int32
	table      [][]int32
	hist       []int64
}

// Publisher owns the current View of one maintained graph. The zero value
// is ready to use; Current returns nil until the first Load.
// Publications serialize on an internal lock, so they may be called from
// any goroutine; each returns the epoch of the View it installs.
type Publisher struct {
	cur atomic.Pointer[View]
	// escapeHW is the highest epoch of a View Current has handed out: an
	// object that entered the views at or before it is never reclaimed.
	escapeHW atomic.Uint64

	// slots are the Readers' epoch slots; a Pin has claimed one only
	// among the first slotsUsed, the ones install reads. slotsUsed shares
	// the cache line of cur, which every Pin loads anyway; the pad keeps
	// slot 0 off that line.
	slotsUsed atomic.Int32
	_         [64]byte
	slots     [pinSlots]pinSlot

	// mu serializes publications and guards the fields below.
	mu    sync.Mutex
	epoch uint64 // the current View's epoch
	// pageBorn[i] is the epoch page i of the current View entered the
	// views, 0 when it is a slice of a Load caller's array (never
	// reclaimed); tableBorn and histBorn are the same for the page table
	// and the histogram.
	pageBorn            []uint64
	tableBorn, histBorn uint64
	retired             []retiree
	freePages           [][]int32
	freeTables          [][][]int32
	freeHists           [][]int64
	pins                []uint64 // install's scratch: the pinned epochs

	full       atomic.Int64
	delta      atomic.Int64
	unchanged  atomic.Int64
	grow       atomic.Int64
	dirtyPages atomic.Int64
	recycled   atomic.Int64
}

// Load derives the aggregate fields from cores, stamps epoch, and
// installs the View as current — the O(n) build, which retires every
// object of the previous View at the previous View's epoch before it
// stamps the new one, so epoch may lie at or below the current one. Load
// must only run at quiescence (no concurrent engine mutation); it takes
// ownership of cores, which becomes the backing store of the pages.
func (p *Publisher) Load(cores []int32, m int64, epoch uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.cur.Load(); old != nil {
		for i, pg := range old.pages {
			p.retire(retiree{born: p.pageBorn[i], page: pg})
		}
		p.retire(retiree{born: p.tableBorn, table: old.pages})
		p.retire(retiree{born: p.histBorn, hist: old.Hist})
	}
	numPages := (len(cores) + PageSize - 1) / PageSize
	if len(p.freePages) > numPages { // a smaller universe: keep the cap
		clear(p.freePages[numPages:])
		p.freePages = p.freePages[:numPages]
	}
	pages := p.takeTable(numPages)
	for i := range pages {
		lo := i << PageBits
		hi := lo + PageSize
		if hi > len(cores) {
			hi = len(cores)
		}
		pages[i] = cores[lo:hi:hi]
	}
	p.pageBorn = append(p.pageBorn[:0], make([]uint64, numPages)...)
	hist := bz.CoreHistogram(cores) // one fused pass; len = MaxCore+1
	p.full.Add(1)
	return p.install(&View{
		Head:  Head{MaxCore: int32(len(hist)) - 1, N: len(cores), M: m},
		pages: pages,
		Hist:  hist,
	}, epoch, true, true)
}

// Publish installs a fresh View derived copy-on-write from the current
// one, with n vertices and m edges. When n exceeds the current N the
// universe grows: the new vertices enter at core 0 on fresh zero pages,
// and a short last page is cloned and zero-extended. Then every vertex of
// changed whose core number coreOf(v) differs from the View is patched:
// its page is cloned once, Hist moves by ±1 and MaxCore is re-derived from
// it. The page table and the histogram are cloned on the first write, so
// a publication that writes nothing shares both with the previous View.
// Cost is O(len(changed) + dirtyPages·PageSize + n/PageSize) — in the
// batch's changed set V*, not in n's linear term.
//
// changed must cover every vertex whose core number differs from the
// current View; repeats and vertices whose core did not change are skipped
// (the page already reads their core). n at or below the current N keeps
// it. Must only run at quiescence, after Load.
func (p *Publisher) Publish(n int, m int64, changed []int32, coreOf func(int32) int32) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.cur.Load()
	next := p.epoch + 1
	pages, hist := old.pages, old.Hist
	newTable, newHist := false, false
	cloneTable := func(size int) {
		newTable = true
		pages = p.takeTable(size)
		copy(pages, old.pages)
		p.retire(retiree{born: p.tableBorn, table: old.pages})
	}
	cloneHist := func() {
		newHist = true
		hist = append(p.takeHist(len(old.Hist)+1), old.Hist...)
		p.retire(retiree{born: p.histBorn, hist: old.Hist})
	}
	grown := n > old.N
	if grown {
		cloneTable((n + PageSize - 1) / PageSize)
		// fullLen returns the length page i must have to cover n.
		fullLen := func(i int) int { return min(n-i<<PageBits, PageSize) }
		if last := len(old.pages) - 1; last >= 0 && len(old.pages[last]) < fullLen(last) {
			// The old last page was short (old.N not page-aligned): clone
			// and zero-extend it, leaving the shared original untouched.
			np := p.takePage(fullLen(last))
			clear(np[copy(np, old.pages[last]):])
			p.retire(retiree{born: p.pageBorn[last], page: old.pages[last]})
			pages[last] = np
			p.pageBorn[last] = next
		}
		for i := len(old.pages); i < len(pages); i++ {
			pages[i] = p.takePage(fullLen(i))
			clear(pages[i])
			p.pageBorn = append(p.pageBorn, next)
		}
		cloneHist()
		hist[0] += int64(n - old.N)
	} else {
		n = old.N
	}
	dirty := 0
	for _, v := range changed {
		core := coreOf(v)
		pi, off := v>>PageBits, v&pageMask
		oldCore := pages[pi][off]
		if oldCore == core {
			continue
		}
		if !newTable {
			cloneTable(len(old.pages))
		}
		if !newHist {
			cloneHist()
		}
		if p.pageBorn[pi] != next { // still shared with the previous View
			dirty++
			np := p.takePage(len(pages[pi]))
			copy(np, pages[pi])
			p.retire(retiree{born: p.pageBorn[pi], page: pages[pi]})
			pages[pi] = np
			p.pageBorn[pi] = next
		}
		pages[pi][off] = core
		hist[oldCore]--
		for int(core) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[core]++
	}
	// Keep the invariant len(Hist) = MaxCore+1: drop bins emptied by the
	// batch.
	for len(hist) > 1 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	switch {
	case grown:
		p.grow.Add(1)
	case dirty > 0:
		p.delta.Add(1)
	default:
		p.unchanged.Add(1)
	}
	p.dirtyPages.Add(int64(dirty))
	return p.install(&View{
		Head:  Head{MaxCore: int32(len(hist)) - 1, N: n, M: m},
		pages: pages,
		Hist:  hist,
	}, next, newTable, newHist)
}

// install stamps v with epoch, makes it current, and then — only then,
// so that a reader still reaching a retired object is visible — reclaims
// every retired object no escape and no pin covers. newTable and newHist
// tell whether v's table and histogram are new in this epoch. It returns
// v's epoch.
func (p *Publisher) install(v *View, epoch uint64, newTable, newHist bool) uint64 {
	p.epoch = epoch
	v.Epoch = epoch
	if newTable {
		p.tableBorn = p.epoch
	}
	if newHist {
		p.histBorn = p.epoch
	}
	p.cur.Store(v)

	hw := p.escapeHW.Load()
	// Every slot in use is read once, here, right after the store.
	pins := p.pins[:0]
	for i := range p.slotsUsed.Load() {
		if e := p.slots[i].epoch.Load(); e != 0 {
			pins = append(pins, e-1)
		}
	}
	p.pins = pins
	kept := p.retired[:0]
	for _, o := range p.retired {
		if o.born <= hw {
			continue // maybe escaped: the garbage collector's
		}
		pinned := slices.ContainsFunc(pins, func(e uint64) bool { return o.born <= e && e <= o.last })
		switch {
		case !pinned:
			p.reclaim(o)
		case len(kept) < maxRetired:
			kept = append(kept, o)
		}
	}
	clear(p.retired[len(kept):])
	p.retired = kept
	return v.Epoch
}

// Current returns the most recently published View, or nil before the
// first Load. The View escapes: it stays valid for as long as the
// caller holds it, so none of its objects is ever reclaimed. Readers that
// can say when they are done use a Reader instead; Head reads the scalar
// fields. Safe for concurrent use.
func (p *Publisher) Current() *View {
	for {
		v := p.cur.Load()
		if v == nil {
			return nil
		}
		for hw := p.escapeHW.Load(); hw < v.Epoch; hw = p.escapeHW.Load() {
			if p.escapeHW.CompareAndSwap(hw, v.Epoch) {
				break
			}
		}
		if p.cur.Load() == v {
			return v
		}
	}
}

// Head returns the scalar fields of the most recently published View (the
// zero Head before the first Load). It holds nothing, so it reclaims
// nothing. Safe for concurrent use.
func (p *Publisher) Head() Head {
	if v := p.cur.Load(); v != nil {
		return v.Head
	}
	return Head{}
}

// Stats returns the publication counters. Safe for concurrent use.
func (p *Publisher) Stats() PubStats {
	return PubStats{
		Full:       p.full.Load(),
		Delta:      p.delta.Load(),
		Unchanged:  p.unchanged.Load(),
		Grow:       p.grow.Load(),
		DirtyPages: p.dirtyPages.Load(),
		Recycled:   p.recycled.Load(),
	}
}

// retire queues o, an object of the current View that the publication in
// progress drops; born 0 marks one that is not the Publisher's own.
func (p *Publisher) retire(o retiree) {
	if o.born != 0 {
		o.last = p.epoch
		p.retired = append(p.retired, o)
	}
}

// reclaim poisons o and puts it on its free list, or leaves it to the
// garbage collector when the list is full. The page list is full at the
// current View's page count (len(pageBorn)): a publication that dirties
// every page then takes every page from it.
func (p *Publisher) reclaim(o retiree) {
	switch {
	case o.page != nil && cap(o.page) == PageSize && len(p.freePages) < len(p.pageBorn):
		pg := o.page[:PageSize]
		fill(pg, poison)
		p.freePages = append(p.freePages, pg)
	case o.table != nil && len(p.freeTables) < maxFreeTables:
		t := o.table[:cap(o.table)]
		clear(t)
		p.freeTables = append(p.freeTables, t)
	case o.hist != nil && len(p.freeHists) < maxFreeHists:
		h := o.hist[:cap(o.hist)]
		fill(h, poison)
		p.freeHists = append(p.freeHists, h)
	}
}

// fill sets every element of s to x, doubling the filled prefix per copy:
// copy is a memmove, while the compiler does not vectorize a plain store
// loop, and every recycled page pays the fill (BenchmarkPoisonFill, one
// 4 KiB page on a 2-CPU Intel Xeon: ≈ 120 ns against ≈ 600 ns for the
// loop).
func fill[T int32 | int64](s []T, x T) {
	if len(s) == 0 {
		return
	}
	s[0] = x
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// takePage returns a page of length n (at most PageSize) with unspecified
// contents: a reclaimed one when the free list has one, else a fresh one.
// The take* methods remove what they return with slices.Delete, which
// clears the vacated slot, so a free list holds no stale reference.
// A fresh short page has capacity n, so it is never pooled: the free list
// holds full pages only.
func (p *Publisher) takePage(n int) []int32 {
	if k := len(p.freePages) - 1; k >= 0 {
		pg := p.freePages[k]
		p.freePages = slices.Delete(p.freePages, k, k+1)
		p.recycled.Add(1)
		return pg[:n]
	}
	return make([]int32, n)
}

// takeTable returns a page table of length n with unspecified entries.
func (p *Publisher) takeTable(n int) [][]int32 {
	return takeFit(&p.freeTables, n)[:n]
}

// takeHist returns an empty histogram with room for n bins.
func (p *Publisher) takeHist(n int) []int64 {
	return takeFit(&p.freeHists, n)[:0]
}

// takeFit pops entries off the free list *free until one has capacity for
// n, and allocates one if none does. An entry too short for n is dropped,
// not skipped: tables and histograms grow with the graph and its largest
// core, so one left behind by an earlier, smaller view would hold a slot
// of the capped list for good, and with every slot so held each retired
// object would go to the garbage collector and each publication allocate.
func takeFit[T any](free *[][]T, n int) []T {
	for k := len(*free) - 1; k >= 0; k-- {
		s := (*free)[k]
		*free = slices.Delete(*free, k, k+1)
		if cap(s) >= n {
			return s
		}
	}
	return make([]T, n)
}
