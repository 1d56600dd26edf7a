package kcore

import (
	"repro/graph"
	"repro/internal/core"
	"repro/internal/jes"
	"repro/internal/pcore"
	"repro/internal/snapshot"
	"repro/internal/traversal"
)

// Stats is the unified per-batch report every maintenance engine returns
// from ApplyInsert and ApplyRemove. It is the engine-side half of
// BatchResult: the pipeline merges one Stats per applied sub-batch into
// the BatchResult its callers receive.
type Stats struct {
	// Applied counts the edges that changed the graph (duplicates,
	// self-loops and absent removals are skipped).
	Applied int
	// ChangedVertices is Σ|V*| over the batch's applied operations — how
	// many core-number updates the batch caused in total, counting a
	// vertex once per operation that moved it.
	ChangedVertices int
	// VPlusSizes holds per-edge |V+| (insertions) or |V*| (removals) for
	// the Order engines; nil for Traversal/JoinEdgeSet, which do not
	// report per-edge searching-set sizes.
	VPlusSizes []int
	// Changed is the batch's ⋃V* — every vertex whose core number some
	// operation of the batch moved — deduplicated: a vertex touched at
	// multiple levels (promoted twice across an insertion chain, dropped
	// and re-dropped across JES rounds) appears once. A reporting
	// contract for Stats consumers; the publisher dedups its input again
	// on its own (snapshot.BuildDelta). The delta snapshot publication
	// input.
	Changed []int32
	// Contention carries the parallel engine's synchronization counters
	// (zero value for the other engines).
	Contention Contention
}

// Engine is the contract a maintenance engine implements to plug into the
// serving layer: batch application with a uniform Stats report, quiescent
// core materialization, invariant checking, and the snapshot-publication
// surface the pipeline drives after every batch. All methods are called
// from one goroutine at a time (the pipeline's applier, or mu-serialized
// callers after Close).
//
// The interface is sealed — the publication surface names internal types —
// so engines register in engineRegistry rather than being supplied by
// callers; every registered engine is exercised by the cross-engine
// conformance suite and the FuzzMixedBatch differential fuzzer.
type Engine interface {
	// ApplyInsert applies one insertion batch and reports what it did.
	ApplyInsert(edges []graph.Edge) Stats
	// ApplyRemove applies one removal batch and reports what it did.
	ApplyRemove(edges []graph.Edge) Stats
	// Grow extends the vertex universe to at least n vertices, all new
	// ones isolated at core 0, and publishes the grown snapshot
	// copy-on-write (held views keep their pre-growth N). Amortized O(1)
	// per minted vertex. Like batch application it must run at
	// quiescence; the pipeline's applier calls it before any engine
	// round whose insertions name unseen vertex ids.
	Grow(n int)
	// Cores materializes the quiescent core numbers — O(n), for
	// conformance checks and full snapshot rebuilds.
	Cores() []int32
	// Check verifies the engine's invariants against a fresh
	// decomposition; O(n + m), for tests and debugging.
	Check() error

	// Sealed snapshot surface (see engineState); the pipeline publishes
	// through these at batch quiescence.
	currentView() *snapshot.View
	publishUnchanged() *snapshot.View
	publishDelta(changed []int32) *snapshot.View
	publicationStats() snapshot.PubStats
}

// engineState is the snapshot/verification/growth surface shared verbatim
// by the two state implementations (core.State for the Order family,
// traversal.State for the Traversal family). Both own every per-vertex
// array an engine needs, so growing the state grows the whole engine: the
// pcore workers keep only per-edge scratch (maps, reused slices) and the
// JES scheduler keeps only per-batch level groups — neither holds
// N-sized state that could go stale across a Grow.
type engineState interface {
	Snapshot() *snapshot.View
	PublishSnapshot() *snapshot.View
	PublishSnapshotUnchanged() *snapshot.View
	PublishSnapshotDelta(changed []int32) *snapshot.View
	PubStats() snapshot.PubStats
	CoreNumbers() []int32
	CheckInvariants() error
	Grow(n int)
}

// stateEngine supplies the state-backed half of Engine by delegation;
// every engine embeds it over its maintenance state.
type stateEngine struct{ state engineState }

func (e stateEngine) Cores() []int32                         { return e.state.CoreNumbers() }
func (e stateEngine) Check() error                           { return e.state.CheckInvariants() }
func (e stateEngine) Grow(n int)                             { e.state.Grow(n) }
func (e stateEngine) currentView() *snapshot.View            { return e.state.Snapshot() }
func (e stateEngine) publishUnchanged() *snapshot.View       { return e.state.PublishSnapshotUnchanged() }
func (e stateEngine) publishDelta(ch []int32) *snapshot.View { return e.state.PublishSnapshotDelta(ch) }
func (e stateEngine) publicationStats() snapshot.PubStats    { return e.state.PubStats() }

// engineRegistry is the registration table — the single dispatch point
// between Algorithm values and engine implementations. Adding an engine
// means adding one row here; the pipeline, the conformance suite and the
// differential fuzzer all range over this table instead of switching on
// the Algorithm.
var engineRegistry = []struct {
	alg  Algorithm
	name string
	make func(g *graph.Graph, workers int) Engine
}{
	{ParallelOrder, "ParallelOrder", newParallelOrderEngine},
	{SequentialOrder, "SequentialOrder", newSequentialOrderEngine},
	{Traversal, "Traversal", newTraversalEngine},
	{JoinEdgeSet, "JoinEdgeSet", newJoinEdgeSetEngine},
}

// Algorithms lists every registered maintenance engine, in registration
// order. Conformance-style callers that want to exercise "all engines"
// should range over this instead of hard-coding the constants.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(engineRegistry))
	for i, r := range engineRegistry {
		out[i] = r.alg
	}
	return out
}

// algorithmName returns the registered name of alg, or "" if unknown.
func algorithmName(a Algorithm) string {
	for _, r := range engineRegistry {
		if r.alg == a {
			return r.name
		}
	}
	return ""
}

// newEngine builds the registered engine for alg over g. Unregistered
// values fall back to the default engine — a deliberate behavior change:
// the old switch dispatch gave out-of-range Algorithm values an order
// state whose updates then silently matched no case and were dropped.
func newEngine(alg Algorithm, g *graph.Graph, workers int) Engine {
	for _, r := range engineRegistry {
		if r.alg == alg {
			return r.make(g, workers)
		}
	}
	return newParallelOrderEngine(g, workers)
}

// dedupVertices enforces the Stats.Changed distinct-set contract; see
// snapshot.Dedup for why this is a reporting contract, not a
// publication-correctness requirement. The publisher's BuildDelta still
// dedups its own input — a coalesced mixed batch concatenates the
// removal and insertion halves' Changed sets, which may overlap — so a
// batch pays two O(|V*|) passes; accepted: |V*| is dwarfed by the engine
// work that produced it, and the distinct contract keeps every Stats
// consumer honest.
func dedupVertices(changed []int32) []int32 { return snapshot.Dedup(changed) }

// --- ParallelOrder ---------------------------------------------------------

type parallelOrderEngine struct {
	stateEngine
	eng *pcore.Engine
	// changed is the buffer the workers' V* reports are concatenated
	// into; reused, so Stats.Changed is valid until the next Apply (the
	// pipeline copies it into its BatchResult at once). A buffer grown
	// past changedKeep entries by one huge batch is not carried over.
	changed []int32
}

const changedKeep = 1024

func newParallelOrderEngine(g *graph.Graph, workers int) Engine {
	st := core.NewState(g)
	return &parallelOrderEngine{stateEngine: stateEngine{st}, eng: pcore.New(st, workers)}
}

func (e *parallelOrderEngine) ApplyInsert(edges []graph.Edge) Stats {
	return e.stats(e.eng.InsertEdges(edges))
}

func (e *parallelOrderEngine) ApplyRemove(edges []graph.Edge) Stats {
	return e.stats(e.eng.RemoveEdges(edges))
}

func (e *parallelOrderEngine) stats(b pcore.Batch) Stats {
	s := Stats{VPlusSizes: make([]int, 0, len(b.Sizes)), Contention: contentionOf(b.Metrics)}
	for _, size := range b.Sizes {
		if size >= 0 {
			s.VPlusSizes = append(s.VPlusSizes, int(size))
		}
	}
	s.Applied = len(s.VPlusSizes)
	if cap(e.changed) > changedKeep {
		e.changed = nil
	}
	e.changed = e.changed[:0]
	for _, ch := range b.Changed {
		e.changed = append(e.changed, ch...)
	}
	s.ChangedVertices = len(e.changed)
	s.Changed = dedupVertices(e.changed)
	return s
}

func contentionOf(m pcore.Metrics) Contention {
	return Contention{
		LockAborts:    m.LockAborts,
		QueueRebuilds: m.QueueRebuilds,
		RemovalRedos:  m.RemovalRedos,
		Evictions:     m.Evictions,
	}
}

// --- SequentialOrder -------------------------------------------------------

type sequentialOrderEngine struct {
	stateEngine
	st *core.State
}

func newSequentialOrderEngine(g *graph.Graph, _ int) Engine {
	st := core.NewState(g)
	return &sequentialOrderEngine{stateEngine{st}, st}
}

func (e *sequentialOrderEngine) ApplyInsert(edges []graph.Edge) Stats {
	s := Stats{VPlusSizes: make([]int, 0, len(edges))}
	for _, ed := range edges {
		es := e.st.InsertEdgeSeq(ed.U, ed.V)
		if es.Applied {
			s.Applied++
			s.ChangedVertices += es.VStar
			s.VPlusSizes = append(s.VPlusSizes, es.VPlus)
			s.Changed = append(s.Changed, es.Changed...)
		}
	}
	s.Changed = dedupVertices(s.Changed)
	return s
}

func (e *sequentialOrderEngine) ApplyRemove(edges []graph.Edge) Stats {
	s := Stats{VPlusSizes: make([]int, 0, len(edges))}
	for _, ed := range edges {
		es := e.st.RemoveEdgeSeq(ed.U, ed.V)
		if es.Applied {
			s.Applied++
			s.ChangedVertices += es.VStar
			s.VPlusSizes = append(s.VPlusSizes, es.VStar)
			s.Changed = append(s.Changed, es.Changed...)
		}
	}
	s.Changed = dedupVertices(s.Changed)
	return s
}

// --- Traversal -------------------------------------------------------------

type traversalEngine struct {
	stateEngine
	st *traversal.State
}

func newTraversalEngine(g *graph.Graph, _ int) Engine {
	st := traversal.NewState(g)
	return &traversalEngine{stateEngine{st}, st}
}

func (e *traversalEngine) ApplyInsert(edges []graph.Edge) Stats {
	var s Stats
	for _, ed := range edges {
		ts := e.st.InsertEdge(ed.U, ed.V)
		if ts.Applied {
			s.Applied++
			s.ChangedVertices += ts.VStar
			s.Changed = append(s.Changed, ts.Changed...)
		}
	}
	s.Changed = dedupVertices(s.Changed)
	return s
}

func (e *traversalEngine) ApplyRemove(edges []graph.Edge) Stats {
	var s Stats
	for _, ed := range edges {
		ts := e.st.RemoveEdge(ed.U, ed.V)
		if ts.Applied {
			s.Applied++
			s.ChangedVertices += ts.VStar
			s.Changed = append(s.Changed, ts.Changed...)
		}
	}
	s.Changed = dedupVertices(s.Changed)
	return s
}

// --- JoinEdgeSet -----------------------------------------------------------

type joinEdgeSetEngine struct {
	stateEngine
	st      *traversal.State
	workers int
}

func newJoinEdgeSetEngine(g *graph.Graph, workers int) Engine {
	st := traversal.NewState(g)
	return &joinEdgeSetEngine{stateEngine{st}, st, workers}
}

func (e *joinEdgeSetEngine) ApplyInsert(edges []graph.Edge) Stats {
	js := jes.InsertEdges(e.st, edges, e.workers)
	return Stats{Applied: js.Applied, ChangedVertices: js.VStar, Changed: js.Changed}
}

func (e *joinEdgeSetEngine) ApplyRemove(edges []graph.Edge) Stats {
	js := jes.RemoveEdges(e.st, edges, e.workers)
	return Stats{Applied: js.Applied, ChangedVertices: js.VStar, Changed: js.Changed}
}
