// Package snapshot provides epoch-versioned immutable views of a core
// decomposition. The serving layer publishes a View at batch quiescence;
// queries load the current View through an atomic pointer and never touch
// live engine state, so reads are lock-free and never block behind an
// in-flight batch.
//
// Core numbers are stored in fixed-size pages behind a page table, so a
// View can be re-published copy-on-write: PublishDelta clones only the
// pages a batch dirtied and patches the histogram by the per-vertex
// (oldCore, newCore) deltas, making publication cost O(|V*| + dirtyPages ·
// PageSize + n/PageSize) instead of O(n). Readers holding an older View
// keep seeing its pages unchanged — published pages are never written.
package snapshot

import (
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
)

// View is one immutable snapshot of a core decomposition. All fields are
// written once, before the View is published; readers must treat the
// slices as read-only.
type View struct {
	// Epoch increases by one with every published View; it never repeats
	// or decreases for a given Publisher.
	Epoch uint64
	// pages is the page table: pages[p][i] is the core number of vertex
	// p·PageSize + i. The last page is short when N is not a multiple of
	// PageSize. Pages are shared freely between Views and never mutated
	// after publication.
	pages [][]int32
	// MaxCore is the largest core number (len(Hist)-1).
	MaxCore int32
	// Hist[k] counts the vertices with core number k; its last bin is
	// nonzero (Hist = [0] for the empty graph).
	Hist []int64
	// N and M are the vertex and edge counts at publication time.
	N int
	M int64
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

// ForEachPage calls fn once per page in vertex order: start is the id of
// the page's first vertex and page its core numbers (page[i] belongs to
// vertex start+i). The allocation-free way to scan all cores sequentially;
// fn must treat page as read-only.
func (v *View) ForEachPage(fn func(start int32, page []int32)) {
	for p, pg := range v.pages {
		fn(int32(p)<<PageBits, pg)
	}
}

// HistRangeInto computes the core histogram of the id range [lo, hi) —
// hist[k] = vertices in the range with core number k — appending into
// dst[:0] so repeat callers pay no allocation once the bin slice is warm.
// The range is clamped to [0, N); the result always has at least one bin
// and its last bin is nonzero unless only bin 0 is populated, matching
// Hist's shape. This is the owned-band primitive of the cluster's
// scatter-gather aggregates: a shard restricted to its owned id range
// reports a histogram that excludes its mirror band, so the router's
// bin-wise sum counts every vertex exactly once. O(hi-lo) page scans.
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

// CountCoresAtLeast counts the vertices in the id range [lo, hi) with
// core number >= k (k <= 0 counts every existing vertex of the range).
// The range is clamped to [0, N). O(hi-lo), allocation-free — the
// range-restricted CORE.KVERT the cluster router sums across shards.
func (v *View) CountCoresAtLeast(k, lo, hi int32) int64 {
	if lo < 0 {
		lo = 0
	}
	if int(hi) > v.N {
		hi = int32(v.N)
	}
	if hi <= lo {
		return 0
	}
	if k <= 0 {
		return int64(hi - lo)
	}
	var count int64
	for u := lo; u < hi; {
		pg := v.pages[u>>PageBits]
		end := (u &^ pageMask) + int32(len(pg))
		if end > hi {
			end = hi
		}
		for ; u < end; u++ {
			if pg[u&pageMask] >= k {
				count++
			}
		}
	}
	return count
}

// VertexCore names one vertex of a batch's changed set V* together with
// its post-batch core number. The pre-batch value is not needed: the
// publisher reads it from the page being patched.
type VertexCore struct {
	V    int32 // vertex id
	Core int32 // core number at batch quiescence
}

// BuildDelta turns a batch's raw changed-vertex report (a ⋃V* that may
// repeat vertices) into PublishDelta input: duplicates are dropped and
// each distinct vertex is paired with its quiescent core number via
// coreOf. ok is false when the distinct set is a sizable fraction of the
// n-vertex graph (≥ n/4) — there a full rebuild is at least as cheap and
// the caller should Publish instead; the loop bails out the moment the
// threshold is crossed, so the fallback case never pays the full dedup.
// Centralizing this keeps the dedup and fallback policy identical across
// the engine families.
//
// The scratch is the caller's, so a warm call allocates nothing. seen is a
// bit set of at least n bits, all clear; BuildDelta clears exactly the bits
// it set before returning, on either outcome. The delta is appended to
// dst[:0], which is replaced by a buffer of the right size when its
// capacity is short of min(len(changed), n/4+1).
func BuildDelta(dst []VertexCore, seen []uint64, changed []int32, n int, coreOf func(int32) int32) (delta []VertexCore, ok bool) {
	hint := len(changed)
	if limit := n/4 + 1; hint > limit {
		hint = limit
	}
	if cap(dst) < hint {
		dst = make([]VertexCore, 0, hint)
	}
	delta, ok = dst[:0], true
	for _, v := range changed {
		w, bit := v>>6, uint64(1)<<(v&63)
		if seen[w]&bit != 0 {
			continue
		}
		seen[w] |= bit
		delta = append(delta, VertexCore{V: v, Core: coreOf(v)})
		if len(delta)*4 >= n {
			ok = false
			break
		}
	}
	for _, c := range delta {
		seen[c.V>>6] &^= 1 << (c.V & 63)
	}
	if !ok {
		return nil, false
	}
	return delta, true
}

// PubStats counts publications by kind. DirtyPages accumulates the pages
// cloned by delta publications; DirtyPages/Delta is the mean write
// amplification of the copy-on-write path.
type PubStats struct {
	Full       int64
	Delta      int64
	Unchanged  int64
	Grow       int64
	DirtyPages int64
}

// Publisher owns the current View of one maintained graph. The zero value
// is ready to use; Current returns nil until the first Publish.
type Publisher struct {
	cur   atomic.Pointer[View]
	epoch atomic.Uint64

	full       atomic.Int64
	delta      atomic.Int64
	unchanged  atomic.Int64
	grow       atomic.Int64
	dirtyPages atomic.Int64
}

// Publish derives the aggregate fields from cores, stamps the next epoch,
// and installs the View as current — the O(n) full rebuild. Publish must
// only run at quiescence (no concurrent engine mutation); it takes
// ownership of cores, which becomes the backing store of the pages.
func (p *Publisher) Publish(cores []int32, m int64) *View {
	numPages := (len(cores) + PageSize - 1) / PageSize
	pages := make([][]int32, numPages)
	for i := range pages {
		lo := i << PageBits
		hi := lo + PageSize
		if hi > len(cores) {
			hi = len(cores)
		}
		pages[i] = cores[lo:hi:hi]
	}
	hist := bz.CoreHistogram(cores) // one fused pass; len = MaxCore+1
	v := &View{
		Epoch:   p.epoch.Add(1),
		pages:   pages,
		MaxCore: int32(len(hist)) - 1,
		Hist:    hist,
		N:       len(cores),
		M:       m,
	}
	p.cur.Store(v)
	p.full.Add(1)
	return v
}

// PublishUnchanged installs a fresh View that reuses the current View's
// page table and aggregates, updating only the epoch and edge count — an
// O(1) publication for batches that changed no core number. The caller
// must guarantee no core number changed since the last Publish; must only
// run at quiescence, after at least one Publish.
func (p *Publisher) PublishUnchanged(m int64) *View {
	old := p.cur.Load()
	v := &View{
		Epoch:   p.epoch.Add(1),
		pages:   old.pages,
		MaxCore: old.MaxCore,
		Hist:    old.Hist,
		N:       old.N,
		M:       m,
	}
	p.cur.Store(v)
	p.unchanged.Add(1)
	return v
}

// PublishGrow installs a fresh View whose vertex universe is extended to
// newN vertices, all new ones entering at core 0. Like PublishDelta it is
// copy-on-write: the page table is re-sliced, a short last page is cloned
// and zero-extended, fresh zero pages cover the new tail, and Hist[0] is
// bumped by the number of minted vertices — O(newPages + n/PageSize),
// never an O(n) rebuild. Views published earlier keep their shorter page
// table and N untouched. Must only run at quiescence, after at least one
// Publish; newN at or below the current N republishes unchanged.
func (p *Publisher) PublishGrow(newN int, m int64) *View {
	old := p.cur.Load()
	if newN <= old.N {
		return p.PublishUnchanged(m)
	}
	numPages := (newN + PageSize - 1) / PageSize
	pages := make([][]int32, numPages)
	copy(pages, old.pages)
	// fullLen returns the capacity page i must have to cover the new N.
	fullLen := func(i int) int {
		if hi := (i + 1) << PageBits; hi > newN {
			return newN - i<<PageBits
		}
		return PageSize
	}
	if last := len(old.pages) - 1; last >= 0 && len(old.pages[last]) < fullLen(last) {
		// The old last page was short (old.N not page-aligned): clone and
		// zero-extend it, leaving the shared original untouched.
		np := make([]int32, fullLen(last))
		copy(np, old.pages[last])
		pages[last] = np
	}
	for i := len(old.pages); i < numPages; i++ {
		pages[i] = make([]int32, fullLen(i))
	}
	hist := append(make([]int64, 0, len(old.Hist)), old.Hist...)
	hist[0] += int64(newN - old.N)
	v := &View{
		Epoch:   p.epoch.Add(1),
		pages:   pages,
		MaxCore: old.MaxCore,
		Hist:    hist,
		N:       newN,
		M:       m,
	}
	p.cur.Store(v)
	p.grow.Add(1)
	return v
}

// PublishDelta installs a fresh View derived copy-on-write from the
// current one: only the pages containing a changed vertex are cloned and
// patched, Hist is adjusted by ±1 per (oldCore, newCore) pair, and
// MaxCore is re-derived from the patched histogram. Cost is
// O(len(changed) + dirtyPages·PageSize + n/PageSize), independent of n's
// linear term — the point of the paper's |V*|-proportional maintenance.
//
// changed must cover every vertex whose core number differs from the
// current View, with its quiescent core number; duplicate entries and
// entries whose core did not change (e.g. a vertex that dropped and was
// re-promoted within one batch) are skipped harmlessly. Must only run at
// quiescence, after at least one Publish.
func (p *Publisher) PublishDelta(changed []VertexCore, m int64) *View {
	old := p.cur.Load()
	pages := make([][]int32, len(old.pages))
	copy(pages, old.pages)
	hist := old.Hist
	histCopied := false
	dirty := 0
	for _, c := range changed {
		pi := c.V >> PageBits
		off := c.V & pageMask
		oldCore := pages[pi][off]
		if oldCore == c.Core {
			continue
		}
		// A page still shared with the old View has not been cloned yet
		// (pages are never empty, so element 0 names the backing array).
		if &pages[pi][0] == &old.pages[pi][0] {
			dirty++
			pages[pi] = append(make([]int32, 0, cap(pages[pi])), pages[pi]...)
		}
		if !histCopied {
			histCopied = true
			hist = append(make([]int64, 0, len(old.Hist)+1), old.Hist...)
		}
		pages[pi][off] = c.Core
		hist[oldCore]--
		for int(c.Core) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[c.Core]++
	}
	// Keep the invariant len(Hist) = MaxCore+1: drop bins emptied by the
	// batch (re-slicing only; shared arrays are never written).
	for len(hist) > 1 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	v := &View{
		Epoch:   p.epoch.Add(1),
		pages:   pages,
		MaxCore: int32(len(hist)) - 1,
		Hist:    hist,
		N:       old.N,
		M:       m,
	}
	p.cur.Store(v)
	p.delta.Add(1)
	p.dirtyPages.Add(int64(dirty))
	return v
}

// Current returns the most recently published View, or nil before the
// first Publish. Safe for concurrent use.
func (p *Publisher) Current() *View { return p.cur.Load() }

// Stats returns the publication counters. Safe for concurrent use.
func (p *Publisher) Stats() PubStats {
	return PubStats{
		Full:       p.full.Load(),
		Delta:      p.delta.Load(),
		Unchanged:  p.unchanged.Load(),
		Grow:       p.grow.Load(),
		DirtyPages: p.dirtyPages.Load(),
	}
}
