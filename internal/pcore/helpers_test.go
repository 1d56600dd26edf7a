package pcore

import (
	"repro/graph"
	"repro/internal/core"
)

// newSameLevel returns an engine that repairs by the same-level rule
// (worker.recordMove, Engine.repairDout), which New leaves off. Every test that goes through the
// helpers below asserts I2 under it; the engines kcore builds, and the tests
// there, run the whole-neighborhood rule.
func newSameLevel(st *core.State, workers int) *Engine {
	e := New(st, workers)
	e.sameLevel = true
	return e
}

// InsertEdges and RemoveEdges run one batch on a fresh engine, for tests
// that do not care about scratch reuse.
func InsertEdges(st *core.State, edges []graph.Edge, workers int) Batch {
	return newSameLevel(st, workers).InsertEdges(edges)
}

func RemoveEdges(st *core.State, edges []graph.Edge, workers int) Batch {
	return newSameLevel(st, workers).RemoveEdges(edges)
}

// newPQueue returns a stand-alone queue aimed at level k, with marks and
// metrics of its own (a worker's queue shares the worker's).
func newPQueue(st *core.State, k int32) *pqueue {
	q := &pqueue{st: st, m: &Metrics{}, mk: &core.Marks{}}
	q.reset(k)
	return q
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
