// Package kcore is the public API of this repository: core-number
// maintenance for dynamic graphs, reproducing "Parallel Order-Based Core
// Maintenance in Dynamic Graphs" (Guo & Sekerinski), wrapped in a serving
// layer built for heavy concurrent query traffic.
//
// The core number of a vertex is the largest k such that the vertex belongs
// to a subgraph in which every vertex has degree at least k. A Maintainer
// tracks the core numbers of a dynamic graph as batches of edges are
// inserted and removed, without recomputing from scratch.
//
// Quick start:
//
//	g := gen.ErdosRenyi(100_000, 800_000, 1)
//	m := kcore.New(g, kcore.WithWorkers(8))
//	m.InsertEdges(batch)          // batch of graph.Edge
//	k := m.CoreOf(42)
//
// Four maintenance engines are available (see Algorithm):
//
//   - ParallelOrder (default) — the paper's contribution: per-vertex CAS
//     locks, a concurrent order-maintenance structure for the k-order, and
//     per-worker priority queues; parallelism is independent of the core
//     number distribution.
//   - SequentialOrder — the Simplified-Order algorithm, one edge at a time.
//   - Traversal — the classic subcore-DFS algorithm, one edge at a time.
//   - JoinEdgeSet — the JEI/JER baseline: batch preprocessing plus
//     level-parallel Traversal.
//
// # Serving architecture
//
// Updates flow through a coalescing pipeline: every InsertEdge/RemoveEdge/
// InsertEdges/RemoveEdges call enqueues an op and blocks on its future
// while a dedicated applier goroutine drains the queue, folds everything
// pending into one mixed batch (last op per edge wins; canceling
// insert/remove pairs annihilate), and runs it through the engine. Batches
// still serialize — the algorithms require it — but concurrent writers
// share engine rounds instead of queueing on a mutex.
//
// Queries never touch live engine state: at every batch quiescence the
// applier publishes an immutable epoch-versioned snapshot, and CoreOf,
// CoreNumbers, MaxCore, CoreHistogram, and Snapshot read the latest one
// through an atomic pointer — lock-free, race-free, and never blocked
// behind an in-flight batch. An update call's snapshot is published before
// its future completes, so every caller reads its own writes; Flush gives
// the same guarantee to third-party readers.
//
// Snapshots store core numbers in fixed-size pages behind a page table and
// are published copy-on-write: a batch that changed the set V* clones only
// the pages V* dirtied and patches the histogram incrementally —
// publication cost O(|V*| + dirtyPages·PageSize), proportional to the
// change, not to the graph — and a batch that changed no core shares every
// page. Every engine — JoinEdgeSet included — reports the vertices each
// batch moved (repeats allowed); the serving layer owns the one publisher
// and hands it the raw report, which patches a vertex only where its core
// differs from the snapshot's. What a publication replaces is recycled
// into later ones once no reader can reach it: a Snapshot stays valid for
// as long as it is held, so its pages are never recycled, while a Reader
// pins a snapshot only until Unpin and lets everything else be reused —
// the path a server connection reads through.
//
// The vertex universe grows on demand: the applier scans each coalesced
// batch before the engine round and grows graph and engine state to cover
// unseen insert endpoints, so streaming workloads that mint vertex ids
// continuously need no pre-sizing (AddVertices pre-allocates when the
// arrival rate is known, as the batch that names the last new vertex).
// The batch's one publication grows the snapshot and patches it,
// copy-on-write; snapshots held across it never change.
//
// Every publication moves one epoch signal: the snapshot's epoch, which
// an update's future completes after and the watermark WaitEpoch parks
// on. An OpLog hears of each publication once, before it happens, so a
// log record names the epoch its publication gets.
package kcore

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/graph"
	"repro/internal/bz"
	"repro/internal/pcore"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Algorithm selects the maintenance engine.
type Algorithm int

const (
	// ParallelOrder is the paper's Parallel-Order algorithm (default).
	ParallelOrder Algorithm = iota
	// SequentialOrder is the sequential Simplified-Order algorithm.
	SequentialOrder
	// Traversal is the sequential subcore-traversal algorithm.
	Traversal
	// JoinEdgeSet is the JEI/JER baseline (level-parallel Traversal).
	JoinEdgeSet
)

// String returns the algorithm's name as used in the paper's plots.
func (a Algorithm) String() string {
	if name := algorithmName(a); name != "" {
		return name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Option configures a Maintainer.
type Option func(*config)

type config struct {
	alg     Algorithm
	workers int
	maxN    int
	oplog   OpLog
}

// OpLog receives the canonical op stream of a Maintainer — the hook the
// durability subsystem (package persist) taps. Every method is called at
// a quiescent point by the pipeline's applier, the one goroutine that
// applies batches for the Maintainer's whole life, so implementations
// need no internal ordering logic; calls arrive in exactly the order the
// engine applies ops.
//
// Each append describes exactly the next publication: it is made before
// the change it names applies, and that change then publishes once, at
// the current Epoch()+1. So appends and epochs map one to one, and a log
// that stamps each record with Epoch()+1 names the epoch the record
// produces. A batch that the universe scan leaves empty neither logs
// nor publishes.
//
// The hook is split in two: append before apply, commit before publish.
// Every AppendBatch is followed by exactly one Commit before the
// publication it names, and Commit returns once the record is as durable
// as the log's policy promises. The applier calls AppendBatch, runs the
// engine round, calls Commit, and only then publishes and completes the
// callers' futures — so a log may sync the record while the engine
// applies it, and a durable OpLog whose Commit waits for the sync makes
// every acknowledged write crash-safe: a record is synced before it
// publishes and before any ack.
//
// AppendBatch is called once per engine batch, after the universe scan
// (ops are post-filter canonical: malformed and beyond-ceiling ids
// already dropped, removals of unseen vertices already dropped). Every
// change is a batch: growth is derivable from insert endpoints, and
// AddVertices' growth to n is the batch inserting the self-loop
// (n−1, n−1), so a log that replays each batch's inserts with
// grow-to-fit reproduces every universe the maintainer published. The
// removes and inserts slices are valid only for the duration of the
// call: the applier reuses their backing arrays for the next batch, so
// an implementation that needs the edges later must encode or copy them
// before returning (persist.Manager encodes them into its own buffer).
type OpLog interface {
	AppendBatch(removes, inserts []graph.Edge)
	Commit()
}

// DefaultMaxVertices is the default auto-growth ceiling (~16.7M
// vertices): large enough for any workload this system targets, small
// enough that one corrupted id cannot make the applier attempt a
// multi-gigabyte allocation. See WithMaxVertices.
const DefaultMaxVertices = 1 << 24

// WithAlgorithm selects the maintenance engine; the default is
// ParallelOrder.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.alg = a } }

// WithWorkers sets the number of worker goroutines used by the parallel
// engines (ParallelOrder, JoinEdgeSet). Sequential engines ignore it.
// The default is 1.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMaxVertices bounds the vertex universe: updates naming ids at or
// beyond n are dropped like malformed ops instead of growing the
// maintainer — per-vertex state is a few hundred bytes, so an
// uncapped adversarial id would otherwise wedge the applier in a huge
// allocation. The default is DefaultMaxVertices; the bound is raised to
// the N of the graph New or Reload is given when that is larger, and
// AddVertices clamps to it too.
func WithMaxVertices(n int) Option { return func(c *config) { c.maxN = n } }

// WithOpLog attaches an op-stream hook (see OpLog). Pass the durability
// subsystem's manager here to make the maintainer's write path
// persistent; nil (the default) logs nothing.
func WithOpLog(l OpLog) Option { return func(c *config) { c.oplog = l } }

// BatchResult reports the outcome of one batch. When the pipeline folds
// several concurrent caller ops into one engine batch, every caller
// receives the shared result of that coalesced batch (Coalesced tells how
// many ops it covered).
type BatchResult struct {
	// Applied counts the edges that changed the graph (duplicates,
	// self-loops and absent removals are skipped).
	Applied int
	// ChangedVertices is Σ|V*|: how many core-number updates the batch
	// caused in total.
	ChangedVertices int
	// VPlusSizes holds per-edge |V+| (insertions with the Order engines)
	// or |V*| (removals) — the data behind the paper's Fig. 1 histogram —
	// for the edges the engine traversed: an insertion batch that spent
	// its rebuild budget (Contention.Rebuilds) applied the rest of its
	// edges by one rebuild, and they count in Applied only. Nil for the
	// Traversal/JoinEdgeSet engines.
	VPlusSizes []int
	// Duration is the wall-clock time of the batch.
	Duration time.Duration
	// Coalesced is the number of caller ops folded into the engine batch
	// this result describes; 1 when the op ran alone.
	Coalesced int
	// changed is where the engines append every vertex whose core number
	// the batch moved (a superset of the moved set is fine, and so are
	// repeats) — the input to copy-on-write snapshot publication.
	// It is the engine's scratch, reused from batch to batch: always nil in
	// a result a caller receives.
	changed []int32
	// Contention reports the parallel engine's synchronization counters
	// (zero value for the other engines): how often conditional locks
	// aborted, priority queues rebuilt their label snapshots, removal
	// propagations re-ran and promotions or drops waited for the commit
	// lock — the observable footprint of the paper's blocking-chain
	// analysis (§4) — how many vertices the batch-end d⁺out repair
	// recomputed, and whether the batch finished with a rebuild.
	Contention Contention
}

// Contention is the set of synchronization counters of one ParallelOrder
// batch; see BatchResult.Contention.
type Contention struct {
	LockAborts    int64 // conditional locks abandoned on a core change
	QueueRebuilds int64 // priority-queue label re-snapshots (Algorithm 9)
	RemovalRedos  int64 // removal propagation redo rounds (Algorithm 8)
	Evictions     int64 // Backward repositionings
	CommitWaits   int64 // commit-lock acquisitions that found it held
	RepairTargets int64 // d⁺out recomputations of the batch-end repair
	Rebuilds      int64 // 1 if the insertion batch spent its budget and finished with a rebuild
}

// engine owns the maintenance batchEngine implementation and the snapshot
// publisher its batches feed. One goroutine drives it: the pipeline's
// applier; queries only load pub's current view. It deliberately
// holds no reference back to the Maintainer handle, so an abandoned
// Maintainer can be collected (a runtime cleanup then stops the applier).
type engine struct {
	cfg    config
	g      *graph.Graph
	impl   batchEngine        // registered implementation for cfg.alg
	coreOf func(int32) int32  // impl.CoreOf, bound once so publishAfter allocates no method value
	pub    snapshot.Publisher // the read snapshots; see publishAfter
	wm     epochWatermark     // pub's epoch, set after every publication
	// res is the report of the batch being applied, zero between batches
	// but for res.changed, the scratch carried from one to the next. It
	// lives here and not on the applier's stack because the engines take
	// its address through an interface.
	res BatchResult
}

// Maintainer tracks core numbers of one dynamic graph. Create it with New;
// all methods are safe for concurrent use. Updates serialize through the
// internal pipeline, queries are served lock-free from the latest
// published snapshot.
type Maintainer struct {
	eng  *engine
	pipe *pipeline
}

// New builds a Maintainer over g, computing the initial core decomposition
// (and, for the order-based engines, the initial k-order) with the BZ
// algorithm, and starts the update-pipeline applier. The Maintainer owns g
// afterwards: mutate the graph only through InsertEdges/RemoveEdges.
//
// Close releases the applier goroutine early; otherwise it is stopped
// automatically when the Maintainer becomes unreachable.
func New(g *graph.Graph, opts ...Option) *Maintainer {
	cfg := config{alg: ParallelOrder, workers: 1, maxN: DefaultMaxVertices}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.maxN > math.MaxInt32 {
		// Vertex ids are int32; a larger ceiling would wrap the scan's
		// comparison negative and silently drop every insert.
		cfg.maxN = math.MaxInt32
	}
	if algorithmName(cfg.alg) == "" {
		// Unregistered Algorithm values run the default engine; normalize
		// so Algorithm() reports the engine actually built.
		cfg.alg = ParallelOrder
	}
	eng := &engine{cfg: cfg}
	eng.load(g, 1)
	pipe := newPipeline(newPipelineMetrics(cfg.alg.String()))
	go pipe.run(eng)
	m := &Maintainer{eng: eng, pipe: pipe}
	runtime.AddCleanup(m, func(p *pipeline) { p.close(false) }, pipe)
	return m
}

// Reload replaces the maintained graph with g at a quiescent point ordered
// after every earlier update: the engine is rebuilt over g with this
// Maintainer's algorithm and worker count, as New builds it, the
// WithMaxVertices ceiling is raised to g.N() if it is below, and g's
// decomposition is published at epoch, the epoch g's state has where it
// came from — which may lie at or below the current one. Snapshots taken
// before the call never change. The Maintainer owns g afterwards, as
// with New.
//
// Reload is how a state that already has an epoch comes in: a replica
// reloads its one Maintainer from every leader snapshot at the
// snapshot's epoch, and a restarted leader reloads the state it recovered
// at the recovered epoch. It does not call the OpLog, so a leader, whose
// log must describe every change to its graph, reloads only before its
// persist.Manager's Start checkpoints it.
func (m *Maintainer) Reload(g *graph.Graph, epoch uint64) {
	m.barrier(func() { m.eng.load(g, epoch) })
}

// Close stops the update pipeline after finishing every already-enqueued
// op. Closing is idempotent. Reads keep answering from the last published
// snapshot (CoreOf, Snapshot, Epoch, N, ServingStats, WaitEpoch and the
// rest), but every later update or barrier — InsertEdges, Submit,
// AddVertices, Flush, Check, AtQuiescence, Reload — panics with "kcore:
// Maintainer used after Close": stop whatever submits (a server, a
// replica, a persist.Manager) before closing the Maintainer.
func (m *Maintainer) Close() { m.pipe.close(true) }

// Graph returns the underlying graph. Treat it as read-only, and only
// inspect it at quiescence (after Flush, with no updates in flight);
// concurrent queries should use Snapshot instead.
func (m *Maintainer) Graph() *graph.Graph { return m.eng.g }

// Algorithm returns the engine this Maintainer runs.
func (m *Maintainer) Algorithm() Algorithm { return m.eng.cfg.alg }

// Workers returns the configured worker count.
func (m *Maintainer) Workers() int { return m.eng.cfg.workers }

// view returns the current published snapshot (never nil). It escapes:
// its pages are never recycled (see Reader).
func (m *Maintainer) view() *snapshot.View { return m.eng.view() }

// CoreOf returns the core number of v in the latest published snapshot:
// one page-table lookup, lock-free, never blocks behind an in-flight
// batch.
func (m *Maintainer) CoreOf(v int32) int32 { return m.view().CoreOf(v) }

// CoreNumbers materializes all core numbers of the latest published
// snapshot into a fresh slice. To reuse a buffer across calls, use
// Snapshot().CoresInto.
func (m *Maintainer) CoreNumbers() []int32 {
	return m.view().CoresInto(nil)
}

// MaxCore returns the largest core number in the latest snapshot.
func (m *Maintainer) MaxCore() int32 { return m.eng.head().MaxCore }

// CoreHistogram returns the number of vertices per core value in the
// latest snapshot.
func (m *Maintainer) CoreHistogram() []int64 {
	return append([]int64(nil), m.view().Hist...)
}

// Epoch returns the version of the latest published snapshot. Each
// applied batch publishes the current epoch + 1, and a Reload publishes
// the epoch it is given, so on a follower the epoch is the leader's and
// on a restarted leader the one it recovered. Between two reloads equal
// epochs mean identical query results.
func (m *Maintainer) Epoch() uint64 { return m.eng.head().Epoch }

// WaitEpoch blocks until a snapshot at epoch target or later is
// published, the timeout elapses, or cancel is closed, and returns the
// epoch observed last and whether target was reached. A zero timeout
// waits as long as cancel allows; a nil cancel never fires. Waiting
// polls nothing: a publication wakes the parked waiters.
func (m *Maintainer) WaitEpoch(target uint64, timeout time.Duration, cancel <-chan struct{}) (uint64, bool) {
	return m.eng.wm.wait(target, timeout, cancel)
}

// Snapshot returns the latest published snapshot: an immutable,
// epoch-versioned view all of whose accessors are O(1) reads. Successive
// queries against one Snapshot are mutually consistent, unlike successive
// Maintainer queries, which may straddle a batch. The Snapshot stays valid
// for as long as it is held, so the pages it shares with later snapshots
// are never recycled; a reader that can say when it is done reads through
// a Reader instead.
func (m *Maintainer) Snapshot() Snapshot { return Snapshot{m.view()} }

// Reader reads a Maintainer's snapshots through a pin: while pinned it
// holds one of the publisher's epoch slots, announcing which snapshot it
// reads. A pinned snapshot stays valid until Unpin; after that the
// publisher may recycle its pages, table and histogram into a later
// snapshot, so a snapshot obtained from Pin must not be read, or its
// Histogram kept, past Unpin. In exchange, a publication reuses what no
// reader can reach instead of allocating it. An unpinned Reader holds
// nothing, but one dropped while pinned keeps its slot: Unpin first. One
// goroutine uses a Reader at a time; a kcored connection holds one.
type Reader struct {
	slot *snapshot.Reader
	v    *snapshot.View // the pinned view; nil when unpinned
}

// NewReader returns an unpinned Reader.
func (m *Maintainer) NewReader() *Reader {
	return &Reader{slot: m.eng.pub.NewReader()}
}

// Pin returns the Reader's pinned snapshot, first pinning the latest
// published one if the Reader holds none: successive Pins without an
// Unpin between them return the same snapshot.
func (r *Reader) Pin() Snapshot {
	if r.v == nil {
		r.v = r.slot.Pin()
	}
	return Snapshot{r.v}
}

// Unpin releases the pinned snapshot, if any; the next Pin takes the
// latest one.
func (r *Reader) Unpin() {
	if r.v != nil {
		r.v = nil
		r.slot.Unpin()
	}
}

// Flush blocks until every update enqueued before the call has been
// applied and published, then returns the epoch of a snapshot at least
// that fresh — the read-your-writes barrier for readers that did not issue
// the writes themselves.
func (m *Maintainer) Flush() uint64 {
	m.barrier(func() {})
	return m.Epoch()
}

// QuiescentState is the consistent view of the maintainer handed to an
// AtQuiescence callback: no batch is in flight, so the graph and the
// snapshot epoch describe the same moment. Valid only for the duration
// of the callback.
type QuiescentState struct{ eng *engine }

// Graph returns the live graph; read-only, callback-scoped.
func (q QuiescentState) Graph() *graph.Graph { return q.eng.g }

// Epoch returns the current snapshot epoch.
func (q QuiescentState) Epoch() uint64 { return q.eng.head().Epoch }

// AtQuiescence runs fn at a quiescent point ordered after every update
// enqueued before the call: no batch in flight, graph and cores mutually
// consistent. It is how the durability subsystem captures checkpoint
// state and rotates its log atomically with respect to the op stream. fn
// must not call Maintainer update methods (the applier would deadlock
// waiting on itself) and must not retain the QuiescentState.
func (m *Maintainer) AtQuiescence(fn func(QuiescentState)) {
	m.barrier(func() { fn(QuiescentState{m.eng}) })
}

// barrier runs fn (not nil) inside the applier at a quiescent point
// ordered after every previously enqueued op. fn must not call Maintainer
// update methods (the applier would deadlock waiting on itself).
func (m *Maintainer) barrier(fn func()) {
	m.pipe.submit(new(Pending), nil, nil, fn).Wait()
}

// ServingStats is a point-in-time view of the serving layer: pipeline
// counters, snapshot-publication counters, and update-latency percentiles
// (enqueue to future completion, in milliseconds), estimated from the
// kcore_update_latency_seconds histogram's buckets.
type ServingStats struct {
	Epoch         uint64
	QueueDepth    int64
	Enqueued      int64
	Batches       int64 // coalesced engine batches applied
	BatchedOps    int64 // caller ops covered by those batches
	CanceledOps   int64 // ops annihilated by coalescing
	Flushes       int64 // barrier ops executed
	Rebuilds      int64 // insertion batches that spent their budget and finished with a rebuild
	UpdateLatency stats.Percentiles

	// Snapshot publication counters: how each epoch was produced.
	FullPublishes      int64 // O(n) loads (New, Reload)
	DeltaPublishes     int64 // copy-on-write page patches
	UnchangedPublishes int64 // re-publications sharing every page (no core changed)
	GrowPublishes      int64 // publications that raised N: AddVertices, or a batch naming unseen ids
	// DirtyPages is the cumulative number of pages cloned to patch a
	// changed vertex; DirtyPages/DeltaPublishes is the mean pages copied
	// per delta publication.
	DirtyPages int64
	// RecycledPages is the cumulative number of pages publications reused
	// from snapshots no reader could reach any more instead of allocating.
	RecycledPages int64
}

// ServingStats reports the pipeline's instrumentation counters.
func (m *Maintainer) ServingStats() ServingStats {
	p := m.eng.pub.Stats()
	ul := m.pipe.pm.Update
	return ServingStats{
		Epoch:              m.Epoch(),
		QueueDepth:         m.pipe.queueDepth.Load(),
		Enqueued:           m.pipe.enqueued.Load(),
		Batches:            m.pipe.batches.Load(),
		BatchedOps:         m.pipe.batchedOps.Load(),
		CanceledOps:        m.pipe.canceledOps.Load(),
		Flushes:            m.pipe.flushes.Load(),
		Rebuilds:           m.pipe.rebuilds.Load(),
		UpdateLatency:      stats.EstimatePercentiles(ul.Count(), ul.Quantile, 1e3),
		FullPublishes:      p.Full,
		DeltaPublishes:     p.Delta,
		UnchangedPublishes: p.Unchanged,
		GrowPublishes:      p.Grow,
		DirtyPages:         p.DirtyPages,
		RecycledPages:      p.Recycled,
	}
}

// InsertEdge inserts a single edge; shorthand for a one-edge batch.
func (m *Maintainer) InsertEdge(u, v int32) BatchResult {
	return m.InsertEdges([]graph.Edge{{U: u, V: v}})
}

// RemoveEdge removes a single edge; shorthand for a one-edge batch.
func (m *Maintainer) RemoveEdge(u, v int32) BatchResult {
	return m.RemoveEdges([]graph.Edge{{U: u, V: v}})
}

// InsertEdges inserts a batch of edges and updates every core number.
// Self-loops and already-present edges are skipped. The call returns after
// the update is applied and visible to queries (read-your-writes).
func (m *Maintainer) InsertEdges(edges []graph.Edge) BatchResult {
	pd := new(Pending)
	m.Submit(pd, nil, edges)
	return pd.Wait()
}

// RemoveEdges removes a batch of edges and updates every core number.
// Self-loops and absent edges are skipped. The call returns after the
// update is applied and visible to queries (read-your-writes).
func (m *Maintainer) RemoveEdges(edges []graph.Edge) BatchResult {
	pd := new(Pending)
	m.Submit(pd, edges, nil)
	return pd.Wait()
}

// Submit submits one update batch — the removals, then the insertions, so
// an edge named in both ends present — without waiting, with pd as its
// future: pd.Wait returns the batch's result. Ops enqueued by one
// goroutine coalesce with last-op-per-edge-wins semantics in exactly the
// order they were submitted, so a caller can fan a whole write burst into
// the pipeline first and Wait afterwards (see Pending). The pipeline reads
// both slices until the op's batch applies: the caller must not modify
// them before pd.Wait returns. pd may be a fresh Pending or one whose Wait
// has returned; one still owed panics. Blocks only when the op queue is
// full (backpressure).
func (m *Maintainer) Submit(pd *Pending, removes, inserts []graph.Edge) {
	m.pipe.submit(pd, removes, inserts, nil)
}

// AddVertices grows the vertex universe by k fresh isolated vertices
// (core number 0) at a quiescent point ordered after every earlier
// update, and returns the new vertex count (growth clamps to the
// WithMaxVertices ceiling). It is the pre-allocation path for streaming
// workloads that know vertices are coming; plain InsertEdges on unseen
// ids grows automatically. The growth to n vertices is the batch that
// inserts the self-loop (n−1, n−1): it names vertex n−1, so the
// universe scan grows to cover it, and it changes no edge. Like any
// batch it is logged and published once before the call returns
// (read-your-writes: queries immediately see the new N), copy-on-write
// — views already held by readers keep their pre-growth N and core
// pages. A call that cannot grow neither logs nor publishes.
func (m *Maintainer) AddVertices(k int) int {
	var n int
	m.barrier(func() {
		cur := m.eng.g.N()
		if target := cur + min(max(k, 0), m.eng.cfg.maxN-cur); target > cur {
			last := int32(target - 1)
			m.pipe.apply(m.eng, nil, []graph.Edge{{U: last, V: last}})
		}
		n = m.eng.g.N()
	})
	return n
}

// N returns the vertex count of the latest published snapshot. It grows
// when a batch names unseen vertex ids or AddVertices runs, and never
// shrinks.
func (m *Maintainer) N() int { return m.eng.head().N }

// Check verifies every internal invariant of the maintainer against a
// fresh core decomposition, at a quiescent point ordered after every
// earlier update. It is O(n + m) and intended for tests and debugging.
func (m *Maintainer) Check() error {
	var err error
	m.barrier(func() { err = m.eng.check() })
	return err
}

// load builds the engine over g and publishes its decomposition at epoch
// — New's construction and Reload's rebuild. At quiescence.
func (eng *engine) load(g *graph.Graph, epoch uint64) {
	if eng.cfg.maxN < g.N() {
		eng.cfg.maxN = g.N() // never below the universe we already have
	}
	eng.g = g
	eng.impl = newEngine(eng.cfg.alg, g, eng.cfg.workers)
	eng.coreOf = eng.impl.CoreOf
	eng.wm.set(eng.pub.Load(eng.impl.Cores(), g.M(), epoch))
}

// view returns the current published snapshot (never nil: New publishes
// the initial decomposition). The view escapes; see Reader.
func (eng *engine) view() *snapshot.View { return eng.pub.Current() }

// head returns the current snapshot's scalar fields. Scalar reads take
// this path, which holds nothing: were they to take view, every batch's
// pages would escape and none would ever be recycled.
func (eng *engine) head() snapshot.Head { return eng.pub.Head() }

// publishAfter publishes the post-batch snapshot for res: one
// copy-on-write publication of the batch's raw report, which grows the
// snapshot to any universe prepareBatch grew and patches only the vertices
// whose core moved — O(|V*| + dirtyPages·PageSize), not O(n).
// The report is dead after publication; its buffer is kept for the next
// batch by the engine's per-batch rule (pcore.KeepBatch), so the one a
// single huge batch grew is not.
func (eng *engine) publishAfter(res *BatchResult) {
	eng.wm.set(eng.pub.Publish(eng.g.N(), eng.g.M(), res.changed, eng.coreOf))
	res.changed = pcore.KeepBatch(res.changed)
}

func (eng *engine) check() error { return eng.impl.Check() }

// logBatch hands one non-empty canonical post-scan batch to the attached
// OpLog, before the engine applies it (write-ahead: the record exists
// before the state it names does).
func (eng *engine) logBatch(removes, inserts []graph.Edge) {
	if lg := eng.cfg.oplog; lg != nil {
		lg.AppendBatch(removes, inserts)
	}
}

// commitLog waits until the batch logBatch handed over is as durable as
// the OpLog's policy promises; the applier calls it after the engine
// round and before publishing, so a record is synced before it publishes
// and before any ack, while its sync may run beside the engine round.
func (eng *engine) commitLog() {
	if lg := eng.cfg.oplog; lg != nil {
		lg.Commit()
	}
}

// prepareBatch is the quiescent-point universe scan run before every
// engine round; it makes updates naming unseen vertex ids Just Work.
// Insertions drive growth: any insert endpoint at or beyond the current N
// grows the graph and engine state to cover it before the batch executes,
// up to the configured WithMaxVertices ceiling; the snapshot grows with
// the batch's own publication (publishAfter), so growth adds no epoch.
// Removals never grow — an edge at an unseen vertex is necessarily
// absent, so such ops are dropped like any other absent removal. Ops
// naming a negative vertex id (malformed, mirroring graph.fromEdges
// which rejects them) or one at or beyond the ceiling are dropped from
// both halves.
func (eng *engine) prepareBatch(removes, inserts []graph.Edge) ([]graph.Edge, []graph.Edge) {
	maxN := int32(eng.cfg.maxN)
	inserts = filterEdges(inserts, func(e graph.Edge) bool {
		return e.U >= 0 && e.V >= 0 && e.U < maxN && e.V < maxN
	})
	if target := growTarget(inserts, eng.g.N()); target > eng.g.N() {
		eng.impl.Grow(target)
	}
	n := int32(eng.g.N())
	removes = filterEdges(removes, func(e graph.Edge) bool {
		return e.U >= 0 && e.V >= 0 && e.U < n && e.V < n
	})
	return removes, inserts
}

// growTarget returns the universe size covering every endpoint of edges,
// starting from n.
func growTarget(edges []graph.Edge, n int) int {
	for _, e := range edges {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	return n
}

// filterEdges returns edges without the entries failing keep, copying
// lazily: the all-kept common case returns the input as-is, and a batch
// needing drops is rebuilt fresh — the input, which on the pipeline's
// lone-op fast path is the caller's own slice, is never mutated.
func filterEdges(edges []graph.Edge, keep func(graph.Edge) bool) []graph.Edge {
	for i, e := range edges {
		if keep(e) {
			continue
		}
		out := make([]graph.Edge, i, len(edges)-1)
		copy(out, edges[:i])
		for _, e := range edges[i+1:] {
			if keep(e) {
				out = append(out, e)
			}
		}
		return out
	}
	return edges
}

// Snapshot is an immutable, epoch-versioned view of the maintained core
// decomposition, published at batch quiescence. All accessors are plain
// reads; a Snapshot never changes after it is obtained, so any number of
// goroutines may share one.
type Snapshot struct {
	v *snapshot.View
}

// Epoch returns the snapshot's version.
func (s Snapshot) Epoch() uint64 { return s.v.Epoch }

// N returns the vertex count.
func (s Snapshot) N() int { return s.v.N }

// M returns the edge count at publication time.
func (s Snapshot) M() int64 { return s.v.M }

// CoreOf returns the core number of v: one page-table lookup, O(1).
func (s Snapshot) CoreOf(v int32) int32 { return s.v.CoreOf(v) }

// CoresInto materializes the paged core numbers into dst (grown if its
// capacity is short) and returns it: an O(n) copy, so a caller that
// materializes repeatedly holds one buffer.
func (s Snapshot) CoresInto(dst []int32) []int32 { return s.v.CoresInto(dst) }

// MaxCore returns the largest core number.
func (s Snapshot) MaxCore() int32 { return s.v.MaxCore }

// Histogram returns the vertices-per-core-value counts. The slice is
// shared and read-only.
func (s Snapshot) Histogram() []int64 { return s.v.Hist }

// HistogramRangeInto computes the core histogram restricted to the id
// range [lo, hi), clamped to [0, N) — hist[k] counts the range's vertices
// with core number k — appending into dst[:0], so a caller that
// aggregates repeatedly holds one bin buffer. An O(hi-lo) scan of the
// paged view (Histogram is the O(1) whole-graph read). This is the
// owned-band aggregate a sharded cluster sums bin-wise: restricted to a
// shard's owned id range it excludes the mirror band, so merged bins
// count each vertex once.
func (s Snapshot) HistogramRangeInto(dst []int64, lo, hi int32) []int64 {
	return s.v.HistRangeInto(dst, lo, hi)
}

// Decompose computes core numbers from scratch with the linear-time BZ
// algorithm — the static building block, usable without a Maintainer.
func Decompose(g *graph.Graph) []int32 {
	cores, _ := bz.Decompose(g)
	return cores
}
