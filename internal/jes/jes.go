// Package jes reimplements the join-edge-set parallel core maintenance
// baseline (JEI/JER, Hua et al. [22]) that the paper compares against. The
// original system is closed source; this reconstruction follows the paper's
// description of its two defining properties (§1, §6):
//
//  1. the batch is preprocessed — edges are grouped ("joined") by the core
//     level they affect, K(e) = min(core(u), core(v)) — and
//  2. parallelism exists only across distinct core levels: each selected
//     group runs the sequential Traversal algorithm, and groups whose
//     levels could interact are never scheduled together.
//
// Two maintenance operations at levels K and K' interact only when
// |K − K'| ≤ 1: an insertion at K writes cores at level K and mcd values at
// levels {K, K+1}; a removal at K writes cores at {K-1, K} and mcd at
// {K-1, K}; classification reads (core ≥ K?) of farther levels are unaffected
// by ±1 moves. The scheduler therefore picks a maximal set of pending levels
// pairwise ≥ 2 apart per round. An edge whose effective level drifted (its
// endpoints were touched by an earlier operation in the same round) is
// deferred to the next round, which keeps the window sound.
//
// The consequence the paper measures falls out directly: on graphs whose
// vertices concentrate on few core values (BA has a single one), every round
// selects one group and the "parallel" baseline degenerates to sequential
// execution, while Parallel-Order keeps all workers busy.
package jes

import (
	"sort"
	"sync"

	"repro/graph"
	"repro/internal/traversal"
)

// Stats summarizes one batch run.
type Stats struct {
	Applied int // edges actually inserted/removed
	Rounds  int // scheduling rounds executed
	// MaxGroups is the largest number of level groups run concurrently in
	// any round — the baseline's effective parallelism ceiling.
	MaxGroups int
	// VStar is Σ|V*| over the batch's applied operations: how many
	// core-number updates the batch caused, counting a vertex once per
	// operation that moved it.
	VStar int
	// Changed is the V* of every applied operation, concatenated: every
	// vertex whose core number the batch moved, once per operation that
	// moved it (so a vertex touched at several levels or in several rounds
	// repeats).
	Changed []int32
}

// InsertEdges applies the batch with the JEI scheme on the Traversal state.
func InsertEdges(st *traversal.State, edges []graph.Edge, workers int) Stats {
	return runBatch(st, edges, workers, true)
}

// RemoveEdges applies the batch with the JER scheme on the Traversal state.
func RemoveEdges(st *traversal.State, edges []graph.Edge, workers int) Stats {
	return runBatch(st, edges, workers, false)
}

func runBatch(st *traversal.State, edges []graph.Edge, workers int, insert bool) Stats {
	if workers < 1 {
		workers = 1
	}
	pending := append([]graph.Edge(nil), edges...)
	stats := Stats{}
	var appliedMu sync.Mutex

	for len(pending) > 0 {
		stats.Rounds++
		// Preprocessing: join edges into per-level sets.
		groups := map[int32][]graph.Edge{}
		for _, e := range pending {
			groups[level(st, e)] = append(groups[level(st, e)], e)
		}
		levels := make([]int32, 0, len(groups))
		for k := range groups {
			levels = append(levels, k)
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
		// Select a maximal set of levels pairwise >= 2 apart.
		var selected []int32
		last := int32(-10)
		for _, k := range levels {
			if k-last >= 2 {
				selected = append(selected, k)
				last = k
			}
		}
		if len(selected) > stats.MaxGroups {
			stats.MaxGroups = len(selected)
		}
		var nextPending []graph.Edge
		for _, k := range levels {
			if !contains(selected, k) {
				nextPending = append(nextPending, groups[k]...)
			}
		}

		// Run the selected groups; at most `workers` at a time.
		var deferredMu sync.Mutex
		var deferred []graph.Edge
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, k := range selected {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int32, es []graph.Edge) {
				defer func() { <-sem; wg.Done() }()
				applied, vstar := 0, 0
				var changed []int32
				for _, e := range es {
					// The level may have drifted under earlier
					// operations of this very round; re-check so
					// the isolation window stays sound.
					if level(st, e) != k {
						deferredMu.Lock()
						deferred = append(deferred, e)
						deferredMu.Unlock()
						continue
					}
					var s traversal.Stats
					if insert {
						s = st.InsertEdge(e.U, e.V)
					} else {
						s = st.RemoveEdge(e.U, e.V)
					}
					if s.Applied {
						applied++
						vstar += s.VStar
						changed = append(changed, s.Changed...)
					}
				}
				appliedMu.Lock()
				stats.Applied += applied
				stats.VStar += vstar
				stats.Changed = append(stats.Changed, changed...)
				appliedMu.Unlock()
			}(k, groups[k])
		}
		wg.Wait()
		pending = append(nextPending, deferred...)

		// Safety valve: if nothing was scheduled and nothing can make
		// progress (cannot happen with a non-empty selection, but keep
		// the loop total), fall back to sequential draining.
		if len(selected) == 0 {
			for _, e := range pending {
				var s traversal.Stats
				if insert {
					s = st.InsertEdge(e.U, e.V)
				} else {
					s = st.RemoveEdge(e.U, e.V)
				}
				if s.Applied {
					stats.Applied++
					stats.VStar += s.VStar
					stats.Changed = append(stats.Changed, s.Changed...)
				}
			}
			pending = nil
		}
	}
	return stats
}

func level(st *traversal.State, e graph.Edge) int32 {
	cu, cv := st.CoreOf(e.U), st.CoreOf(e.V)
	if cu < cv {
		return cu
	}
	return cv
}

func contains(ks []int32, k int32) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}
