// Package core holds the shared core-maintenance state — core numbers, the
// k-order (one OM list per core value, Definition 3.5), remaining
// out-degrees d⁺out, max-core degrees mcd, the per-vertex status counters s
// and t, and the per-vertex locks — plus the sequential Simplified-Order
// insertion (Algorithm 2) and removal (Algorithm 3) algorithms. The parallel
// algorithms in internal/pcore operate on the same State.
//
// Both Order engines run on one kind of per-operation scratch, defined here
// (scratch.go): a flag table for V*, V+ \ V*, Q and R that also holds the
// candidate in-degree d*in (Definition 3.6), a label heap for Q, and one
// rule for which buffers survive the operation. d*in is not state: it is
// nonzero only inside the one insertion traversal that holds its vertex. A
// pcore worker keeps its scratch across edges; the sequential engine keeps
// its own on the State, so InsertEdgeSeq and RemoveEdgeSeq are not safe for
// concurrent use on one State.
package core

import (
	"runtime"
	"sync/atomic"

	"repro/graph"
	"repro/internal/bz"
	"repro/internal/grow"
	"repro/internal/om"
	"repro/internal/spin"
)

// McdEmpty is the sentinel for an unknown ("∅") max-core degree; mcd values
// are recomputed lazily by CheckMCD when needed (paper §4.2).
const McdEmpty int32 = -1

// State is the complete maintenance state for one dynamic graph.
//
// Field access contract (enforced by the race detector in parallel tests):
// Core, S and T are read by workers that do not hold the vertex lock and are
// atomic. Dout and Mcd are atomic too: commit phases adjust the Dout of
// unlocked survivor neighbors and invalidate the Mcd of unlocked neighbors
// (safe because insertion and removal batches never overlap and neither
// phase reads the other structure). The adjacency of G is only touched while
// holding the vertex's entry in Locks.
//
// The vertex universe is growable: Grow appends fresh vertices at
// quiescence. The per-vertex slices, the OM slab included, are re-sliced or
// reallocated then — safe, because no pointer into them outlives a batch
// and the k-order lists link vertices by id.
type State struct {
	G *graph.Graph

	// Core[v] is the current core number of v.
	Core []atomic.Int32
	// Dout[v] is the remaining out-degree d⁺out (Definition 3.7): at
	// quiescence, the number of neighbors that follow v in k-order.
	Dout []atomic.Int32
	// Mcd[v] is the max-core degree (Definition 3.8) or McdEmpty.
	Mcd []atomic.Int32
	// S[v] is the order-change status: odd while v's k-order position is
	// being updated (Algorithm 6).
	S []atomic.Uint32
	// T[v] is the removal propagation status (Algorithm 8), tagged with
	// the level v is dropping from: 0 when idle, otherwise
	// DropStatus(level, s) with s = 2 queued, 1 propagating, 3 propagation
	// must be redone. The tag lets an mcd count at one level ignore a
	// vertex that is in flight at another (see DroppingFrom).
	T []atomic.Int32
	// Locks[v] is the per-vertex CAS spin lock.
	Locks []spin.Lock

	// commitMu serializes the level moves of Relocate, whose doc says why.
	commitMu spin.Lock

	// slab holds every vertex's k-order record, in whichever list O_k
	// currently links it; the lists name vertices by id.
	slab  *om.Slab
	mu    spin.Lock    // guards list growth
	lists atomic.Value // []*om.List, one per core number

	// seq is the sequential engine's per-operation scratch.
	seq seqScratch
}

// Grow extends the vertex universe to at least n vertices. New vertices
// are isolated: core number 0, empty mcd, appended to the tail of the
// k=0 order list (any position among core-0 vertices is a valid k-order
// for a vertex with no neighbors). Must run at quiescence, like every
// structural operation on the state.
func (st *State) Grow(n int) {
	old := st.N()
	if n <= old {
		return
	}
	st.G.Grow(n)
	st.Core = grow.Slice(st.Core, n)
	st.Dout = grow.Slice(st.Dout, n)
	st.Mcd = grow.Slice(st.Mcd, n)
	st.S = grow.Slice(st.S, n)
	st.T = grow.Slice(st.T, n)
	st.Locks = grow.Slice(st.Locks, n)
	st.slab.Grow(n)
	list0 := st.List(0)
	for v := old; v < n; v++ {
		st.Mcd[v].Store(McdEmpty)
		list0.InsertAtTail(int32(v))
	}
}

// NewState initializes the state from g: it allocates the per-vertex
// arrays and lets Rebuild fill them in.
func NewState(g *graph.Graph) *State {
	n := g.N()
	st := &State{
		G:     g,
		Core:  make([]atomic.Int32, n),
		Dout:  make([]atomic.Int32, n),
		Mcd:   make([]atomic.Int32, n),
		S:     make([]atomic.Uint32, n),
		T:     make([]atomic.Int32, n),
		Locks: make([]spin.Lock, n),
	}
	st.rebuild(nil)
	return st
}

// Rebuild recomputes the whole state from the current graph, in place and
// in O(n + m): core numbers, the k-order and d⁺out come from one BZ peel
// (its peeling sequence is a valid k-order by construction, and it counts
// each vertex's later neighbors as it goes), every mcd starts empty, T is
// cleared, and the k-order lists are laid out on a fresh slab. It
// appends to changed every vertex whose core number it changed and returns
// the result. Must run at quiescence; no pointer into the old lists may be
// used afterwards.
func (st *State) Rebuild(changed []int32) []int32 {
	st.rebuild(&changed)
	return changed
}

// rebuild is Rebuild; a nil changed records nothing (NewState's case, where
// every vertex starts at core 0 and nobody reads the old numbers).
func (st *State) rebuild(changed *[]int32) {
	n := st.N()
	cores, order, dout := bz.DecomposeDout(st.G)
	// Core numbers never decrease along the peeling order, so O_k is the
	// run of it at core k, in peeling order.
	st.slab = om.NewSlab(n)
	lists := make([]*om.List, bz.MaxCore(cores)+1)
	lo := 0
	for k := range lists {
		hi := lo
		for hi < n && cores[order[hi]] == int32(k) {
			hi++
		}
		lists[k] = om.NewListOf(st.slab, 0, order[lo:hi])
		lo = hi
	}
	st.lists.Store(lists)
	clear(st.T)
	for v := 0; v < n; v++ {
		if changed != nil && st.Core[v].Load() != cores[v] {
			*changed = append(*changed, int32(v))
		}
		st.Core[v].Store(cores[v])
		st.Mcd[v].Store(McdEmpty)
		st.Dout[v].Store(dout[v])
	}
}

// N returns the number of vertices.
func (st *State) N() int { return len(st.Core) }

// CoreOf returns the current core number of v.
func (st *State) CoreOf(v int32) int32 { return st.Core[v].Load() }

// CoreNumbers returns a snapshot of all core numbers.
func (st *State) CoreNumbers() []int32 {
	out := make([]int32, len(st.Core))
	for v := range st.Core {
		out[v] = st.Core[v].Load()
	}
	return out
}

// List returns the k-order list O_k, growing the list table if k is beyond
// the current maximum. Safe for concurrent use.
func (st *State) List(k int32) *om.List {
	ls := st.lists.Load().([]*om.List)
	if int(k) < len(ls) {
		return ls[k]
	}
	return st.growLists(k)
}

func (st *State) growLists(k int32) *om.List {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls := st.lists.Load().([]*om.List)
	if int(k) < len(ls) {
		return ls[k]
	}
	grown := make([]*om.List, k+1)
	copy(grown, ls)
	for i := len(ls); i < len(grown); i++ {
		grown[i] = om.NewList(st.slab, 0)
	}
	st.lists.Store(grown)
	return grown[k]
}

// MaxCoreValue returns the largest core value with an allocated list.
func (st *State) MaxCoreValue() int32 {
	return int32(len(st.lists.Load().([]*om.List)) - 1)
}

// BeforeSeq reports u ≺ v for single-threaded callers: first by core number,
// then by position in the shared core's OM list.
func (st *State) BeforeSeq(u, v int32) bool {
	cu, cv := st.Core[u].Load(), st.Core[v].Load()
	if cu != cv {
		return cu < cv
	}
	return st.List(cu).Order(u, v)
}

// Before is the Parallel-Order comparison of Algorithm 6: it retries until
// both vertices have even (stable) order-change status before and after the
// comparison, so the (core, position) pair it reads is consistent even while
// other workers move vertices between k-order lists.
func (st *State) Before(u, v int32) bool {
	for {
		su := st.S[u].Load()
		sv := st.S[v].Load()
		if su&1 == 1 || sv&1 == 1 {
			runtime.Gosched()
			continue
		}
		cu, cv := st.Core[u].Load(), st.Core[v].Load()
		var r bool
		if cu != cv {
			r = cu < cv
		} else {
			r = st.List(cu).Order(u, v)
		}
		if st.S[u].Load() == su && st.S[v].Load() == sv {
			return r
		}
		runtime.Gosched()
	}
}

// Head and Tail are the placements of Relocate that name no vertex: the
// head and the tail of the target list.
const (
	Head int32 = -1
	Tail int32 = -2
)

// Relocate moves v from O_from to O_to and places it right after `after`, a
// vertex of O_to, or at Head or Tail. It is the one place a vertex changes
// its k-order position, and it reports whether it had to wait for the
// commit lock.
//
// The move is bracketed by v's order-change status (odd S while it runs,
// Algorithm 6), so Before never observes a half-updated (core, position)
// pair. A promotion (to > from) first empties the mcd of v and of its
// neighbors, which refer to v's old core number.
//
// A level move (from != to) stores the new core number AND moves the list
// item inside one critical section of the commit lock; a move within one
// list (an eviction) takes no commit lock. Why: other workers linearize
// their operations against a promotion or a drop by observing Core[v] (the
// forward filter, the queue discard check, the LockIf predicate) — a worker
// that sees the new core number treats the move as complete. The placement
// rules (a promotion to the head of O_{k+1}, a drop to the tail of
// O_{k-1}) are only valid under that linearization: whoever moves later
// must end up earlier at the head, later at the tail. If the core store and
// the list move could interleave with another level move into the same
// list (observed in the wild under GOMAXPROCS=2: worker A preempted between
// publishing core(w)=k+1 and inserting w, worker B promoting an adjacent
// vertex in between), the list order would invert relative to the observed
// linearization and the final k-order would be invalid — dout exceeds the
// core number — which later in-batch decisions then build on,
// over-promoting vertices (the TestLargerScaleInsert I1/I2 failures).
//
// The section is a handful of index updates, so a wait for it is short,
// but a waiter parked on a mutex costs a wake-up longer than the section
// itself: with two workers the parked ones left a quarter of the apply
// phase off-CPU. So it is the engine's own spin lock, whose waiter yields
// and retries (spin.Lock.Lock) and never parks.
func (st *State) Relocate(v, from, to, after int32) (waited bool) {
	if to > from {
		st.Mcd[v].Store(McdEmpty)
		for _, x := range st.G.Adj(v) {
			st.Mcd[x].Store(McdEmpty)
		}
	}
	src, dst := st.List(from), st.List(to)
	level := from != to
	if level && !st.commitMu.TryLock() {
		waited = true
		st.commitMu.Lock()
	}
	st.S[v].Add(1)
	if level {
		st.Core[v].Store(to)
	}
	src.Delete(v)
	switch after {
	case Head:
		dst.InsertAtHead(v)
	case Tail:
		dst.InsertAtTail(v)
	default:
		dst.InsertAfter(after, v)
	}
	st.S[v].Add(1)
	if level {
		st.commitMu.Unlock()
	}
	return waited
}

// tStatusBits is the width of the propagation status in a packed T value;
// the level a vertex is dropping from sits above it.
const tStatusBits = 2

// DropStatus packs the propagation status s (1, 2 or 3) of a vertex that is
// dropping from core `level` to level-1 into one T value.
func DropStatus(level, s int32) int32 { return level<<tStatusBits | s }

// DroppingFrom reports whether the T value t belongs to a vertex in flight
// from core `level`. A drop publishes T before the lowered core number, so
// for a moment a vertex leaving level k reads "core k, t in flight" — which,
// without the tag, a recount at level k+1 cannot tell from a vertex that has
// just arrived from k+1 and still owes its decrement.
func DroppingFrom(t, level int32) bool {
	return t&(1<<tStatusBits-1) != 0 && t>>tStatusBits == level
}

// computeMCD returns the max-core degree of u per Definition 3.8 evaluated
// against current core numbers plus the in-flight rule of Algorithm 8
// (CheckMCD): a neighbor with core = core(u)−1 that is still propagating
// its drop from core(u) is counted because it has not yet delivered its
// decrement to u. Pure computation; the caller decides where to store it.
func (st *State) computeMCD(u int32) int32 {
	cu := st.Core[u].Load()
	mcd := int32(0)
	for _, v := range st.G.Adj(u) {
		cv := st.Core[v].Load()
		if cv >= cu || (cv == cu-1 && DroppingFrom(st.T[v].Load(), cu)) {
			mcd++
		}
	}
	return mcd
}

// RecomputeDout recomputes and stores d⁺out(v) from the current k-order:
// one Core read per neighbor, plus one label read per neighbor that shares
// v's core, compared against v's position read once. The reads skip the
// order-change protocol, so it must run at quiescence (batch end): no
// vertex moves while it runs. Concurrent calls for distinct vertices are
// safe — each writes only its own d⁺out.
func (st *State) RecomputeDout(v int32) {
	cv := st.Core[v].Load()
	pos := st.List(cv).Positions()
	key := pos.Key(v)
	core := st.Core
	dout := int32(0)
	for _, x := range st.G.Adj(v) {
		if cx := core[x].Load(); cx > cv || cx == cv && pos.After(x, key) {
			dout++
		}
	}
	st.Dout[v].Store(dout)
}

// InsertStats reports what one edge insertion did; VPlus/VStar sizes feed
// the Fig. 1 histogram.
type InsertStats struct {
	Applied bool // false: self-loop or duplicate edge, nothing changed
	VPlus   int  // |V+|: vertices traversed
	VStar   int  // |V*|: vertices whose core number increased
	// Changed is V* itself — the vertices whose core number this
	// insertion raised. It aliases the State's scratch: it is valid
	// until the State's next sequential operation, so a caller that
	// keeps it copies it.
	Changed []int32
}

// RemoveStats reports what one edge removal did. For removal V+ = V*
// (paper §6.5).
type RemoveStats struct {
	Applied bool // false: edge was absent, nothing changed
	VStar   int  // |V*|: vertices whose core number decreased
	// Changed is V* itself — the vertices whose core number this removal
	// lowered, in the order they dropped. It aliases the State's scratch,
	// like InsertStats.Changed.
	Changed []int32
}
