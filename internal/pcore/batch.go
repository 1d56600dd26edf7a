// Package pcore implements the paper's contribution: the Parallel-Order
// core maintenance algorithms — batch edge insertion (Algorithm 7) and batch
// edge removal (Algorithm 8) driven by per-worker goroutines (Algorithm 5),
// synchronized with per-vertex CAS spin locks, the order-change status
// protocol (Algorithm 6) and the versioned priority queue (Algorithms 9-11).
package pcore

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/graph"
	"repro/internal/core"
)

// Engine runs Parallel-Order batches over one State with a fixed set of
// workers (Algorithm 5: a batch is partitioned statically and each worker
// processes its share one edge at a time, no preprocessing). The workers and
// all their scratch live here across batches, so a warm batch allocates
// nothing but its forks' goroutines: every buffer but the bit set seen is
// sized by what operations touched (|V+|, moves, batch length), not by the
// number of vertices. Per-edge scratch is kept up to scratchKeep entries,
// per-batch buffers up to twice what the last batch used (KeepBatch).
//
// One goroutine drives an Engine at a time, and insertion and removal
// batches never overlap — the paper's algorithms assume it (§4) and the
// kcore façade enforces it.
type Engine struct {
	ws      []*worker
	wg      sync.WaitGroup
	sizes   []int32
	changed [][]int32
	// seen is one bit per vertex, all clear between batches, with two
	// roles (DESIGN.md, "The repair pass"). While the workers apply the
	// batch it marks the vertices a move has repositioned (recordMove);
	// in the repair pass it marks the targets, which a scan of the words
	// then recomputes and clears (repairDout). It is the engine's one
	// per-vertex buffer (n/8 bytes); run sizes it to the State.
	seen []uint64
	// sameLevel narrows the repair pass to the neighbors at the level of
	// the move (repairDout). Only this package's tests set it; DESIGN.md,
	// "The repair pass", says why New leaves it off.
	sameLevel bool

	// budget is the Σ|V+| an insertion batch may traverse before it
	// finishes with a rebuild (see InsertEdges); 0 while a removal batch,
	// which is not budgeted, runs. spent is the batch's Σ|V+| as the
	// workers have published it, and stop is set once spent passes budget.
	budget int64
	spent  atomic.Int64
	stop   atomic.Bool
}

// The rebuild budget of an insertion batch, in |V+| (DESIGN.md, "The
// rebuild budget"): (n+m)/budgetDiv, but at least minBudget. A rebuild costs
// about what traversing (n+m)/30 vertices does, so budgetDiv = 8 leaves a
// margin of 3.7 over the break-even point; the floor keeps small graphs, where
// a batch traverses a large share of n+m as a matter of course, on
// Algorithm 7.
const (
	budgetDiv = 8
	minBudget = 1 << 14
)

// publishEvery is how much |V+|, at most, a worker sums locally before it
// adds it to the engine's shared total: a 2-worker burst of ten thousand
// edges publishes about ten times.
const publishEvery = 1024

// New returns an engine over st with max(workers, 1) workers.
func New(st *core.State, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{ws: make([]*worker, workers), changed: make([][]int32, workers)}
	for i := range e.ws {
		e.ws[i] = newWorker(st)
		e.ws[i].e = e
	}
	return e
}

// Rebuilt is the Sizes entry of an inserted edge that no worker traversed:
// the batch spent its budget first, and the rebuild that finished it
// applied the edge.
const Rebuilt int32 = -2

// Batch reports what one batch did. Its slices alias buffers the engine
// reuses: they are valid until the engine's next batch.
type Batch struct {
	// Sizes is aligned with the batch's edges: -1 where the edge changed
	// nothing (self-loop, duplicate insertion, absent removal), Rebuilt
	// where the batch's closing rebuild applied it, otherwise the size of
	// the operation's searching set — |V+| for an insertion (the Fig. 1
	// histogram), |V*| for a removal (where V+ = V*, §6.5).
	Sizes []int32
	// Changed holds, per worker, the V* of every edge that worker applied,
	// concatenated: the vertices whose core number the batch moved (one
	// entry per move, so a vertex moved twice appears twice). A rebuild
	// appends every vertex whose core number it changed to worker 0's.
	Changed [][]int32
	// Metrics are this batch's contention and work counters.
	Metrics Metrics
}

// Applied counts the edges of the batch that changed the graph.
func (b Batch) Applied() int {
	n := 0
	for _, s := range b.Sizes {
		if s >= 0 || s == Rebuilt {
			n++
		}
	}
	return n
}

// InsertEdges inserts a batch of edges with the Parallel-Order insertion
// algorithm (Algorithm 7 per edge). The graph reserves room for the batch
// before the workers fork, so their concurrent AddEdge calls never move
// its adjacency arena.
//
// The batch may traverse max((n+m)/budgetDiv, minBudget) vertices in total,
// counted in |V+|. Once it has spent that, the workers take no further
// edge, and the batch finishes with one rebuild of the whole state
// (core.State.Rebuild) instead: traversal while it is cheaper than a
// recompute, then one recompute.
func (e *Engine) InsertEdges(edges []graph.Edge) Batch {
	g := e.ws[0].st.G
	e.budget = max((int64(g.N())+g.M())/budgetDiv, minBudget)
	g.Reserve(edges)
	return e.run(edges, (*worker).insertEdge)
}

// RemoveEdges removes a batch of edges with the Parallel-Order removal
// algorithm (Algorithm 8 per edge). Removal is not budgeted: every vertex
// in its V* is a core number that moves (§4.2.3).
func (e *Engine) RemoveEdges(edges []graph.Edge) Batch {
	e.budget = 0
	return e.run(edges, (*worker).removeEdge)
}

// run executes one batch in two fork-join phases: every worker applies its
// share of the edges, and once all have quiesced every worker repairs the
// d⁺out of its share of what was repositioned — or, if the batch spent its
// budget, one rebuild finishes it. The calling goroutine is worker 0, so a
// one-worker engine starts no goroutine at all.
func (e *Engine) run(edges []graph.Edge, apply func(*worker, int32, int32) int32) Batch {
	if e.sizes = KeepBatch(e.sizes); cap(e.sizes) < len(edges) {
		e.sizes = make([]int32, len(edges))
	}
	e.sizes = e.sizes[:len(edges)]
	sizes := e.sizes
	if n := e.ws[0].st.N(); len(e.seen)*64 < n {
		e.seen = make([]uint64, (n+63)/64)
	}
	e.spent.Store(0)
	e.stop.Store(false)
	for pi := 1; pi < len(e.ws); pi++ {
		e.wg.Add(1)
		go func(pi int) {
			defer e.wg.Done()
			e.ws[pi].applyShare(edges, sizes, pi, apply)
		}(pi)
	}
	e.ws[0].applyShare(edges, sizes, 0, apply)
	e.wg.Wait()

	// A batch is one long computation on the caller's goroutine, which a
	// one-worker engine never leaves (wg.Wait has nothing to wait for).
	// Yield between the phases so that whatever is queued behind it on
	// this P — a connection's reads beside a serving node's applier —
	// runs now, not a whole repair pass later.
	runtime.Gosched()
	rebuilt := e.stop.Load()
	if rebuilt {
		e.rebuild(edges, sizes)
	} else {
		e.repair()
	}
	for _, w := range e.ws {
		w.moved = KeepBatch(w.moved)
	}

	b := Batch{Sizes: sizes, Changed: e.changed}
	for i, w := range e.ws {
		b.Changed[i] = w.changed
		b.Metrics.add(w.m)
	}
	if rebuilt {
		b.Metrics.Rebuilds = 1
	}
	return b
}

// rebuild finishes a batch that spent its budget: it adds the edges no
// worker took to the graph and recomputes the state from it. The rebuild
// sets every d⁺out, so the repair pass is skipped; it clears the marks the
// moves left in seen instead.
func (e *Engine) rebuild(edges []graph.Edge, sizes []int32) {
	st := e.ws[0].st
	for _, w := range e.ws {
		for _, mv := range w.moved {
			e.seen[mv.v>>6] = 0
		}
	}
	for _, w := range e.ws {
		for i := w.next; i < len(edges); i += len(e.ws) {
			sizes[i] = -1
			if st.G.AddEdge(edges[i].U, edges[i].V) {
				sizes[i] = Rebuilt
			}
		}
	}
	e.ws[0].changed = st.Rebuild(e.ws[0].changed)
}

// repair runs the batch-end d⁺out repair (repairDout) on every worker.
func (e *Engine) repair() {
	for pi := 1; pi < len(e.ws); pi++ {
		e.wg.Add(1)
		go func(pi int) {
			defer e.wg.Done()
			e.ws[pi].repairDout(pi)
		}(pi)
	}
	e.ws[0].repairDout(0)
	e.wg.Wait()
}

// scratchKeep is the largest capacity, in entries, at which a per-edge
// scratch buffer is carried over to the next operation, and the least at
// which a per-batch buffer is (KeepBatch). What the common case needs
// (Fig. 1: |V+| ≤ 10 for almost every edge) is then never reallocated, while
// the buffers of the rare huge traversal — which amortize their own
// allocation — are garbage once it is over, so a worker's footprint does not
// ratchet up to its high-water mark.
const scratchKeep = 1024

// keep returns the per-edge buffer buf emptied for reuse, or nil if it has
// outgrown scratchKeep.
func keep[T any](buf []T) []T {
	if cap(buf) > scratchKeep {
		return nil
	}
	return buf[:0]
}

// KeepBatch returns the per-batch buffer buf, whose length is what the batch
// just over used, emptied for the next batch — or nil if its capacity is
// more than max(scratchKeep, 2·len(buf)). A run of like-sized batches then
// reuses one buffer, while the one a single huge batch grew is dropped once
// a batch that used less than half of it is over, instead of pinning its
// high-water mark.
func KeepBatch[T any](buf []T) []T {
	if cap(buf) > max(scratchKeep, 2*len(buf)) {
		return nil
	}
	return buf[:0]
}

// worker is one of the engine's workers: it executes InsertEdge_p
// (Algorithm 7) and RemoveEdge_p (Algorithm 8) for its share of each batch.
// All of it is private to the worker — shared state is reached through st
// under the locking protocol — and all of it is kept from one edge and one
// batch to the next: an operation resets what the previous one left, it
// never reallocates (DESIGN.md, "Worker scratch").
type worker struct {
	st *core.State
	e  *Engine

	// per batch
	m Metrics
	// moved lists every vertex this worker repositioned — promoted into
	// O_{k+1}, dropped into O_{k-1}, evicted within O_k — with the level k
	// of the move, and, at level anyLevel, every endpoint of a removed
	// edge whose other endpoint had already moved (recordMove,
	// recordRemoval). repairDout expands it into the batch's repair
	// targets when the batch is quiescent.
	moved []move
	// changed is the concatenated V* of the edges this worker applied.
	changed []int32
	// next is the first edge of the worker's share it did not take: past
	// the end of the batch unless the budget stopped it.
	next int
	// unspent is the |V+| the worker has summed since it last added to the
	// engine's spent, and spentSeen the total that addition returned.
	unspent, spentSeen int64

	// per edge
	k         int32
	q         pqueue
	mk        marks
	vstar     []int32 // V* in discovery (= k-) order, evicted members included
	confirmed []int32 // Backward triggers: V+ \ V* members that never joined V*
	rq        []int32 // R: Backward's eviction queue / removal's propagation queue
}

func newWorker(st *core.State) *worker {
	p := &worker{st: st}
	p.q = pqueue{st: st, m: &p.m, mk: &p.mk}
	return p
}

// applyShare runs the worker's static share of the batch: edges pi,
// pi+stride, and so on, until it is done or the batch's budget is spent.
// An edge the worker has started always finishes.
func (p *worker) applyShare(edges []graph.Edge, sizes []int32, pi int, apply func(*worker, int32, int32) int32) {
	e := p.e
	p.m = Metrics{}
	p.changed = KeepBatch(p.changed)
	p.unspent, p.spentSeen = 0, 0
	i := pi
	for ; i < len(edges) && !e.stop.Load(); i += len(e.ws) {
		sizes[i] = apply(p, edges[i].U, edges[i].V)
		if e.budget > 0 && sizes[i] > 0 {
			p.spend(int64(sizes[i]))
		}
	}
	p.next = i
}

// spend counts one traversal of vplus vertices against the batch's budget.
// The worker adds to the shared total only every publishEvery, or when its
// own view of the total — exact with one worker — passes the budget; it
// sets stop once the shared total has.
func (p *worker) spend(vplus int64) {
	e := p.e
	p.unspent += vplus
	if p.unspent < publishEvery && p.spentSeen+p.unspent <= e.budget {
		return
	}
	p.spentSeen = e.spent.Add(p.unspent)
	p.unspent = 0
	if p.spentSeen > e.budget {
		e.stop.Store(true)
	}
}

// resetScratch empties the per-edge scratch for the next searching operation.
func (p *worker) resetScratch() {
	p.mk.reset()
	p.vstar = keep(p.vstar)
	p.confirmed = keep(p.confirmed)
	p.rq = keep(p.rq)
}

// move is one entry of a worker's moved list: a vertex and the level of its
// move, or anyLevel for a vertex recorded alone.
type move struct{ v, level int32 }

// anyLevel is the level of a moved-list entry that names a repair target
// but no neighborhood to expand.
const anyLevel int32 = -1

// recordMove records that this worker has just repositioned w at level k.
// The worker still holds w locked, so the mark it sets in the engine's seen
// set is visible to every later holder of w's lock — in particular to a
// removal of one of w's edges later in the batch (recordRemoval).
//
// Only w and its neighbors can need their d⁺out recomputed, and of the
// neighbors only those at level k: a move at level k is a promotion from
// O_k to the head of O_{k+1}, a drop from O_k to the tail of O_{k-1}, or an
// eviction to a later place inside O_k. A neighbor x that never moves
// during the batch keeps one core number c throughout: if c < k-1 or
// c > k+1, x is on the same side of w before and after; if c = k+1, w either
// stays below O_{k+1} or enters it at the head, in front of every vertex
// that does not move; if c = k-1, w either stays above O_{k-1} or enters it
// at the tail, behind every vertex that does not move. That leaves c = k. A
// neighbor that does move during the batch is recorded by its own mover.
// And d⁺out of a vertex recorded by nobody is only ever changed by the
// insertion or removal of one of its own edges, under both endpoint locks,
// which is exact. The neighborhood is read when the batch is quiescent
// (repairDout), not here, so the move costs one entry, not a copy of w's
// adjacency.
func (p *worker) recordMove(w, k int32) {
	p.moved = append(p.moved, move{w, k})
	atomic.OrUint64(&p.e.seen[w>>6], 1<<(w&63))
}

// recordRemoval runs when this worker, holding both endpoint locks, removes
// the edge (u, v). An endpoint that has moved earlier in the batch may have
// flipped the edge's orientation without the other endpoint's d⁺out
// following; once the edge is gone, the batch-end expansion of the mover's
// adjacency no longer reaches the other endpoint, so it is recorded here.
// The move marked its vertex under the lock this worker now holds, so the
// mark is seen exactly when the move came first.
func (p *worker) recordRemoval(u, v int32) {
	if p.e.movedEarlier(u) {
		p.moved = append(p.moved, move{v, anyLevel})
	}
	if p.e.movedEarlier(v) {
		p.moved = append(p.moved, move{u, anyLevel})
	}
}

// movedEarlier reports whether a move of this batch has marked v. The
// caller holds v's lock.
func (e *Engine) movedEarlier(v int32) bool {
	return atomic.LoadUint64(&e.seen[v>>6])&(1<<(v&63)) != 0
}

// repairDout recomputes d⁺out for worker pi's share of the batch's repair
// targets, once every worker has quiesced. Within a batch each worker
// maintains d⁺out incrementally as Algorithm 7 prescribes; what this pass
// settles is the orientation of edges whose endpoints were repositioned by
// different workers — their relative order at the head of O_{k+1} (or the
// tail of O_{k-1}) is decided by lock interleaving and is only observable
// now — and of the edges a drop flips, which removal leaves to this pass
// altogether.
//
// The targets are every worker's moved list expanded: each moved vertex w,
// its neighbors now — all of them, or with sameLevel those whose core
// number is the level of the move (recordMove says why that is enough) —
// and the endpoints recordRemoval named. Worker pi takes the targets whose
// word of the engine's bit set has index congruent to pi modulo the number
// of workers, so no two workers touch one word. It clears the marks the
// moves left in its words, walks the expansion to mark its targets, and then
// scans its words, recomputing each marked target in id order and clearing
// the words as it goes. A vertex is thus recomputed once however often and
// by however many workers it was named, and the bit set is clear again at
// the end. Cost: one walk over the moved vertices' adjacencies, n/64/workers
// word reads, and one adjacency scan per distinct target t, in which each
// entry costs one Core read, and one label read if it shares t's core
// (RecomputeDout reads plainly: no vertex moves until every worker is done);
// with sameLevel a neighbor at another level — the hub next to a low-core
// vertex — is never scanned.
func (p *worker) repairDout(pi int) {
	e := p.e
	for _, w := range e.ws {
		for _, mv := range w.moved {
			if e.owner(mv.v) == pi {
				e.seen[mv.v>>6] = 0
			}
		}
	}
	for _, w := range e.ws {
		for _, mv := range w.moved {
			e.mark(pi, mv.v)
			if mv.level == anyLevel {
				continue
			}
			for _, x := range p.st.G.Adj(mv.v) {
				if !e.sameLevel || p.st.Core[x].Load() == mv.level {
					e.mark(pi, x)
				}
			}
		}
	}
	n := int64(0)
	for word := pi; word < len(e.seen); word += len(e.ws) {
		b := e.seen[word]
		if b == 0 {
			continue
		}
		e.seen[word] = 0
		for ; b != 0; b &= b - 1 {
			p.recompute(int32(word<<6 + bits.TrailingZeros64(b)))
			n++
		}
	}
	p.m.RepairTargets = n
}

// owner returns the worker whose share of seen holds v's word.
func (e *Engine) owner(v int32) int {
	return int(v>>6) % len(e.ws)
}

// mark sets v's bit in seen if v's word is in worker pi's share.
func (e *Engine) mark(pi int, v int32) {
	if e.owner(v) == pi {
		e.seen[v>>6] |= 1 << (v & 63)
	}
}

// recompute recomputes one repair target's d⁺out.
func (p *worker) recompute(v int32) {
	if traceFn != nil {
		traceFn(traceRepair, v)
	}
	p.st.RecomputeDout(v)
}
