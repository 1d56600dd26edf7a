package kcore

import (
	"repro/graph"
	"repro/internal/core"
	"repro/internal/jes"
	"repro/internal/pcore"
	"repro/internal/traversal"
)

// Engine is what a maintenance engine owes the serving layer: batch
// application that adds its report straight into the caller's BatchResult,
// growth, and quiescent reads of the core numbers it maintains. Publication
// and epochs are the serving layer's (see engine.publishAfter); an engine
// knows nothing of snapshots. All methods
// are called from one goroutine, the pipeline's applier.
//
// Engines register in engineRegistry rather than being supplied by callers;
// every registered engine is exercised by the cross-engine conformance suite
// and the FuzzMixedBatch differential fuzzer.
type Engine interface {
	// ApplyInsert applies one insertion batch and adds what it did to res:
	// Applied, ChangedVertices (Σ|V*|, plus the vertices a rebuild moved),
	// VPlusSizes (Order engines only),
	// Contention, and — appended to res.changed — every vertex whose core
	// number it moved. A vertex moved more than once may be appended more
	// than once; a vertex whose core number moved must appear.
	ApplyInsert(edges []graph.Edge, res *BatchResult)
	// ApplyRemove is ApplyInsert for a removal batch.
	ApplyRemove(edges []graph.Edge, res *BatchResult)
	// Grow extends the vertex universe (graph and engine state) to at least
	// n vertices, all new ones isolated at core 0. Amortized O(1) per minted
	// vertex. Like batch application it must run at quiescence.
	Grow(n int)
	// CoreOf returns the quiescent core number of v — what snapshot
	// publication reads for each reported vertex.
	CoreOf(v int32) int32
	// Cores materializes the quiescent core numbers — O(n), for
	// conformance checks and the snapshot load.
	Cores() []int32
	// Check verifies the engine's invariants against a fresh
	// decomposition; O(n + m), for tests and debugging.
	Check() error
}

// orderState and traversalState give the two maintenance states (core.State
// for the Order family, traversal.State for the Traversal family) the names
// Engine uses for what they already do; Grow and CoreOf are the states' own.
// Both states own every per-vertex array an engine needs, so growing the
// state grows the whole engine: the pcore workers keep only per-edge scratch
// and the JES scheduler only per-batch level groups — neither holds N-sized
// state that could go stale across a Grow.
type orderState struct{ *core.State }

func (s orderState) Cores() []int32 { return s.CoreNumbers() }
func (s orderState) Check() error   { return s.CheckInvariants() }

type traversalState struct{ *traversal.State }

func (s traversalState) Cores() []int32 { return s.CoreNumbers() }
func (s traversalState) Check() error   { return s.CheckInvariants() }

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

// --- ParallelOrder ---------------------------------------------------------

type parallelOrderEngine struct {
	orderState
	eng *pcore.Engine
}

func newParallelOrderEngine(g *graph.Graph, workers int) Engine {
	st := core.NewState(g)
	return &parallelOrderEngine{orderState{st}, pcore.New(st, workers)}
}

func (e *parallelOrderEngine) ApplyInsert(edges []graph.Edge, res *BatchResult) {
	res.addBatch(e.eng.InsertEdges(edges))
}

func (e *parallelOrderEngine) ApplyRemove(edges []graph.Edge, res *BatchResult) {
	res.addBatch(e.eng.RemoveEdges(edges))
}

// addBatch adds one Parallel-Order batch report to r. b aliases buffers the
// pcore engine reuses, so everything kept is copied out here.
func (r *BatchResult) addBatch(b pcore.Batch) {
	r.wantSizes(len(b.Sizes))
	for _, size := range b.Sizes {
		switch {
		case size >= 0:
			r.Applied++
			r.VPlusSizes = append(r.VPlusSizes, int(size))
		case size == pcore.Rebuilt:
			r.Applied++
		}
	}
	for _, vstar := range b.Changed {
		r.ChangedVertices += len(vstar)
		r.changed = append(r.changed, vstar...)
	}
	r.Contention.LockAborts += b.Metrics.LockAborts
	r.Contention.QueueRebuilds += b.Metrics.QueueRebuilds
	r.Contention.RemovalRedos += b.Metrics.RemovalRedos
	r.Contention.Evictions += b.Metrics.Evictions
	r.Contention.RepairTargets += b.Metrics.RepairTargets
	r.Contention.Rebuilds += b.Metrics.Rebuilds
}

// wantSizes makes VPlusSizes non-nil, with room for hint more entries: the
// Order engines report per-edge sizes, so their result carries the slice even
// when no edge of the batch applied.
func (r *BatchResult) wantSizes(hint int) {
	if r.VPlusSizes == nil {
		r.VPlusSizes = make([]int, 0, hint)
	}
}

// addOp adds one applied single-edge operation whose V* is vstar to r.
func (r *BatchResult) addOp(vstar []int32) {
	r.Applied++
	r.ChangedVertices += len(vstar)
	r.changed = append(r.changed, vstar...)
}

// --- SequentialOrder -------------------------------------------------------

type sequentialOrderEngine struct{ orderState }

func newSequentialOrderEngine(g *graph.Graph, _ int) Engine {
	return &sequentialOrderEngine{orderState{core.NewState(g)}}
}

func (e *sequentialOrderEngine) ApplyInsert(edges []graph.Edge, res *BatchResult) {
	res.wantSizes(len(edges))
	for _, ed := range edges {
		if es := e.InsertEdgeSeq(ed.U, ed.V); es.Applied {
			res.addOp(es.Changed)
			res.VPlusSizes = append(res.VPlusSizes, es.VPlus)
		}
	}
}

func (e *sequentialOrderEngine) ApplyRemove(edges []graph.Edge, res *BatchResult) {
	res.wantSizes(len(edges))
	for _, ed := range edges {
		if es := e.RemoveEdgeSeq(ed.U, ed.V); es.Applied {
			res.addOp(es.Changed)
			res.VPlusSizes = append(res.VPlusSizes, es.VStar)
		}
	}
}

// --- Traversal -------------------------------------------------------------

type traversalEngine struct{ traversalState }

func newTraversalEngine(g *graph.Graph, _ int) Engine {
	return &traversalEngine{traversalState{traversal.NewState(g)}}
}

func (e *traversalEngine) ApplyInsert(edges []graph.Edge, res *BatchResult) {
	for _, ed := range edges {
		if ts := e.InsertEdge(ed.U, ed.V); ts.Applied {
			res.addOp(ts.Changed)
		}
	}
}

func (e *traversalEngine) ApplyRemove(edges []graph.Edge, res *BatchResult) {
	for _, ed := range edges {
		if ts := e.RemoveEdge(ed.U, ed.V); ts.Applied {
			res.addOp(ts.Changed)
		}
	}
}

// --- JoinEdgeSet -----------------------------------------------------------

type joinEdgeSetEngine struct {
	traversalState
	workers int
}

func newJoinEdgeSetEngine(g *graph.Graph, workers int) Engine {
	return &joinEdgeSetEngine{traversalState{traversal.NewState(g)}, workers}
}

func (e *joinEdgeSetEngine) ApplyInsert(edges []graph.Edge, res *BatchResult) {
	res.addStats(jes.InsertEdges(e.State, edges, e.workers))
}

func (e *joinEdgeSetEngine) ApplyRemove(edges []graph.Edge, res *BatchResult) {
	res.addStats(jes.RemoveEdges(e.State, edges, e.workers))
}

// addStats adds one JEI/JER batch report to r.
func (r *BatchResult) addStats(js jes.Stats) {
	r.Applied += js.Applied
	r.ChangedVertices += js.VStar
	r.changed = append(r.changed, js.Changed...)
}
