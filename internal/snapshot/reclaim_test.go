package snapshot

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// model is what the View of one epoch must read: its sizes, its
// histogram and an FNV-1a hash of every page.
type model struct {
	epoch uint64
	n     int
	m     int64
	hist  []int64
	sums  []uint64
}

func pageSum(page []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range page {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}

// audit reports how v differs from mdl, or "" when it reads exactly mdl.
func audit(v *View, mdl *model) string {
	if v.Epoch != mdl.epoch || v.N != mdl.n || v.M != mdl.m {
		return "sizes"
	}
	if int(v.MaxCore) != len(mdl.hist)-1 || !slices.Equal(v.Hist, mdl.hist) {
		return "histogram"
	}
	if len(v.pages) != len(mdl.sums) {
		return "page count"
	}
	for p, page := range v.pages {
		if pageSum(page) != mdl.sums[p] {
			return "page"
		}
	}
	// The core numbers themselves, counted against the histogram. A loop
	// bounded by the pages' lengths: a table recycled under the audit may
	// hold nil pages.
	h := make([]int64, len(mdl.hist))
	for _, c := range v.CoresInto(nil) {
		if c < 0 || int(c) >= len(h) {
			return "a core number out of range"
		}
		h[c]++
	}
	if !slices.Equal(h, mdl.hist) {
		return "page contents against the histogram"
	}
	return ""
}

// TestReclaimHammerThenAudit: one writer runs publications that write
// pages, that write nothing, that grow the universe, and Loads, on an
// 8-page graph, and records what every epoch's View must read; four
// pinned Readers and two holders of escaped Views read beside it, and
// every read is audited against its epoch's model. A pinned View is
// sometimes held across publications and audited again before Unpin; an
// escaped View is audited again after at least 1 000 later publications.
// Recycling must actually happen: a reclamation that reused a page some
// reader could still reach shows as a failed audit.
func TestReclaimHammerThenAudit(t *testing.T) {
	publishes := 20_000
	if testing.Short() {
		publishes = 4_000
	}
	const (
		baseN  = 7*PageSize + 300
		maxN   = 8 * PageSize
		ring   = 1 << 12
		escape = 1_000
	)
	var p Publisher
	var models [ring]atomic.Pointer[model]
	lookup := func(e uint64) *model {
		if mdl := models[e%ring].Load(); mdl != nil && mdl.epoch == e {
			return mdl
		}
		return nil // overwritten: this reader fell a ring behind
	}
	var failed atomic.Bool
	fail := func(who string, v *View, what string) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf("%s: view of epoch %d reads wrong: %s", who, v.Epoch, what)
		}
	}

	// The writer's truth, kept incrementally.
	rng := rand.New(rand.NewSource(1))
	cores := make([]int32, baseN)
	for i := range cores {
		cores[i] = rng.Int31n(12)
	}
	var m int64
	hist := make([]int64, 12)
	var sums []uint64
	recount := func() {
		clear(hist)
		for _, c := range cores {
			hist[c]++
		}
		sums = sums[:0]
		for lo := 0; lo < len(cores); lo += PageSize {
			sums = append(sums, pageSum(cores[lo:min(lo+PageSize, len(cores))]))
		}
	}
	resum := func(pg int) {
		sums[pg] = pageSum(cores[pg*PageSize : min((pg+1)*PageSize, len(cores))])
	}
	record := func(e uint64) {
		h := slices.Clone(hist)
		for len(h) > 1 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		models[e%ring].Store(&model{epoch: e, n: len(cores), m: m, hist: h, sums: slices.Clone(sums)})
	}
	recount()
	record(1)
	p.Load(slices.Clone(cores), m, 1)
	coreOf := func(v int32) int32 { return cores[v] }

	var done atomic.Bool
	var wg sync.WaitGroup
	head := func() uint64 { return p.Head().Epoch }
	// waitFor spins until the epoch reaches e or the writer is done, and
	// reports whether it got there.
	waitFor := func(e uint64) bool {
		for head() < e {
			if done.Load() {
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	var pinnedReads, heldAcross atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := p.NewReader()
			defer r.Unpin()
			for it := 0; !done.Load() && !failed.Load(); it++ {
				v := r.Pin()
				mdl := lookup(v.Epoch)
				if mdl == nil {
					r.Unpin()
					continue
				}
				if bad := audit(v, mdl); bad != "" {
					fail("pinned reader", v, bad)
				}
				pinnedReads.Add(1)
				if it%8 == i && waitFor(v.Epoch+3) {
					if bad := audit(v, mdl); bad != "" {
						fail("reader pinned across publications", v, bad)
					}
					heldAcross.Add(1)
				}
				r.Unpin()
			}
		}(i)
	}
	var reaudits [2]int
	for i := range reaudits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !done.Load() && !failed.Load() {
				v := p.Current()
				mdl := lookup(v.Epoch)
				if mdl == nil {
					continue
				}
				if bad := audit(v, mdl); bad != "" {
					fail("escaped view", v, bad)
				}
				if !waitFor(v.Epoch + escape) {
					return
				}
				if bad := audit(v, mdl); bad != "" {
					fail("escaped view 1000 publications on", v, bad)
				}
				reaudits[i]++
			}
		}(i)
	}

	for e := uint64(2); e <= uint64(publishes) && !failed.Load(); e++ {
		m++
		var got uint64
		switch k := rng.Intn(100); {
		case k < 70: // writes: a few vertices on one to three pages
			changed := make([]int32, 0, 24)
			for range 1 + rng.Intn(3) {
				lo := int32(rng.Intn(len(sums))) * PageSize
				for range 1 + rng.Intn(8) {
					v := lo + rng.Int31n(int32(min(PageSize, len(cores)-int(lo))))
					c := rng.Int31n(12)
					hist[cores[v]]--
					hist[c]++
					cores[v] = c
					changed = append(changed, v)
				}
				resum(int(lo / PageSize))
			}
			record(e)
			got = p.Publish(len(cores), m, changed, coreOf)
		case k < 82: // no writes: a report whose vertices did not move
			record(e)
			got = p.Publish(len(cores), m, []int32{rng.Int31n(int32(len(cores)))}, coreOf)
		case k < 92 && len(cores) < maxN:
			newN := min(len(cores)+1+rng.Intn(400), maxN)
			hist[0] += int64(newN - len(cores))
			cores = append(cores, make([]int32, newN-len(cores))...)
			for len(sums) < (newN+PageSize-1)/PageSize {
				sums = append(sums, 0)
			}
			for pg := range sums {
				resum(pg)
			}
			record(e)
			got = p.Publish(newN, m, nil, nil)
		default: // Load: a fresh decomposition, back at the base size
			cores = cores[:baseN]
			for range 200 {
				cores[rng.Intn(baseN)] = rng.Int31n(12)
			}
			recount()
			record(e)
			got = p.Load(slices.Clone(cores), m, e)
		}
		if got != e {
			t.Fatalf("publication returned epoch %d, want %d", got, e)
		}
		if e%64 == 0 {
			runtime.Gosched() // let the readers see some of every run
		}
	}
	done.Store(true)
	wg.Wait()

	st := p.Stats()
	t.Logf("%d publications (%d delta, %d grow, %d full); %d dirty pages, %d recycled; %d pinned reads, %d held across publications; escaped views re-audited %v times",
		head(), st.Delta, st.Grow, st.Full, st.DirtyPages, st.Recycled, pinnedReads.Load(), heldAcross.Load(), reaudits)
	if failed.Load() {
		return
	}
	if st.Recycled == 0 {
		t.Error("no page was recycled: the hammer did not exercise reclamation")
	}
	if heldAcross.Load() == 0 {
		t.Error("no reader held a pin across publications")
	}
	for i, n := range reaudits {
		if n == 0 {
			t.Errorf("escaped holder %d never re-audited its view %d publications on", i, escape)
		}
	}
}

// TestPinSlotsCountBusyReaders: an unpinned Reader holds no slot, so a
// publication reads as many slots as Readers were ever pinned at once,
// however many Readers exist. Past pinSlots pins at once a Pin escapes,
// and the View it returns is never reclaimed.
func TestPinSlotsCountBusyReaders(t *testing.T) {
	var p Publisher
	cores := make([]int32, 2*PageSize)
	p.Load(slices.Clone(cores), 0, 1)
	cores[0] = 1
	p.Publish(len(cores), 0, []int32{0}, coresOf(cores)) // page 0 is the Publisher's own now
	for range 256 {
		r := p.NewReader()
		r.Pin()
		r.Unpin()
	}
	if n := p.slotsUsed.Load(); n != 1 {
		t.Fatalf("256 Readers pinned in turn use %d slots, want 1", n)
	}
	pinned := make([]*Reader, pinSlots)
	for i := range pinned {
		pinned[i] = p.NewReader()
		pinned[i].Pin()
	}
	extra := p.NewReader()
	v := extra.Pin()
	if n := p.slotsUsed.Load(); n != pinSlots || extra.slot != nil || p.escapeHW.Load() != v.Epoch {
		t.Fatalf("Pin past %d pinned Readers: %d slots used, slot taken %v, escape mark %d (view %d); want a Pin that escapes",
			pinSlots, n, extra.slot != nil, p.escapeHW.Load(), v.Epoch)
	}
	for _, r := range pinned {
		r.Unpin()
	}
	for i := range 16 {
		cores[0] = int32(i%2) + 2
		p.Publish(len(cores), 0, []int32{0}, coresOf(cores))
	}
	if v.CoreOf(0) != 1 || v.CoreOf(1) != 0 || !slices.Equal(v.Hist, []int64{2*PageSize - 1, 1}) {
		t.Fatalf("escaped view changed: core(0) %d, core(1) %d, hist %v", v.CoreOf(0), v.CoreOf(1), v.Hist)
	}
	if st := p.Stats(); st.Recycled == 0 {
		t.Fatalf("no page recycled in %d dirty pages", st.DirtyPages)
	}
	extra.Unpin()
}

// TestPinAcrossLowerLoad: a Load may stamp an epoch below the current one
// (a follower reloading at a leader's epoch). It retires the old View's
// objects at the old epoch before it stamps the new one, so a Reader
// pinned on the old View keeps its pages unpoisoned across the Load and
// the 200 publications after it, which pass the old epoch again.
func TestPinAcrossLowerLoad(t *testing.T) {
	var p Publisher
	cores := make([]int32, 2*PageSize)
	p.Load(slices.Clone(cores), 0, 1)
	// flip moves one vertex on each page, so every publication clones
	// both pages and retires the previous ones.
	flip := func(i int) {
		cores[0], cores[PageSize] = int32(i%3)+1, int32(i%3)+1
		p.Publish(len(cores), 0, []int32{0, PageSize}, coresOf(cores))
	}
	for i := range 100 {
		flip(i)
	}
	r := p.NewReader()
	v := r.Pin()
	held := v.CoresInto(nil)
	recycled := p.Stats().Recycled

	p.Load(make([]int32, 2*PageSize), 0, 50)
	if e := p.Head().Epoch; e != 50 {
		t.Fatalf("Load at 50 installed epoch %d", e)
	}
	clear(cores)
	for i := range 200 {
		flip(i)
	}
	if got := v.CoresInto(nil); !slices.Equal(got, held) {
		t.Fatalf("the view pinned at epoch %d changed across a Load at 50: core(0) %d, want %d", v.Epoch, got[0], held[0])
	}
	if p.Stats().Recycled == recycled {
		t.Fatal("no page recycled after the Load: the test did not exercise reclamation")
	}
	r.Unpin()
}

// TestEpochZeroPinHoldsItsSlot: a View at epoch 0 (a follower before its
// first bootstrap) pins like any other, so the Reader pinned on it holds
// a slot no other Reader can claim, and its Unpin frees no slot another
// Reader holds: that Reader's View keeps its pages.
func TestEpochZeroPinHoldsItsSlot(t *testing.T) {
	var p Publisher
	cores := make([]int32, 2*PageSize)
	p.Load(slices.Clone(cores), 0, 0)
	a := p.NewReader()
	if v := a.Pin(); v.Epoch != 0 {
		t.Fatalf("pinned epoch %d, want 0", v.Epoch)
	}
	flip := func(i int) {
		cores[0], cores[PageSize] = int32(i%3)+1, int32(i%3)+1
		p.Publish(len(cores), 0, []int32{0, PageSize}, coresOf(cores))
	}
	flip(0)
	b := p.NewReader()
	v := b.Pin()
	held := v.CoresInto(nil)
	if a.slot == b.slot {
		t.Fatal("two Readers claimed one slot")
	}
	a.Unpin()
	for i := 1; i <= 20; i++ {
		flip(i)
	}
	if got := v.CoresInto(nil); !slices.Equal(got, held) {
		t.Fatalf("the view pinned at epoch %d changed after another Reader unpinned epoch 0: core(0) %d, want %d", v.Epoch, got[0], held[0])
	}
	if p.Stats().Recycled == 0 {
		t.Fatal("no page recycled: the test did not exercise reclamation")
	}
	b.Unpin()
}
