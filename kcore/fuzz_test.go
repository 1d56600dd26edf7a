package kcore

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// FuzzMixedBatch is the native differential fuzzer over the engine
// registry: the input bytes decode into a script of mixed insert/remove
// batches over a small growable graph, every registered engine applies
// the same script through the batchEngine interface, and after every batch
// each engine's cores must be byte-equal to a fresh BZ decomposition of a
// mirror graph (and the engines' reports must cover the moved vertices —
// the contract delta snapshot publication rests on). A seed corpus lives
// in testdata/fuzz/FuzzMixedBatch; `make fuzz-smoke` runs a 10s smoke
// pass in CI.
//
// Encoding: the stream is consumed in 3-byte ops — flags, u, v. Vertices
// are taken mod n+16, so the script names ids beyond the 48-vertex base
// graph: every batch runs through the pipeline's universe scan (grow for
// unseen insert endpoints, drop unseen removals), differentially fuzzing
// auto-grow. Bit 0 of flags selects insert (0) or remove (1); bit 1 set
// flushes the pending ops as one batch after this op; bit 2 set negates u
// (a malformed id the scan must drop). Self-loops are kept in the script
// (engines must skip them).
func FuzzMixedBatch(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x00\x03\x04\x02\x05\x06"))      // two inserts, then flush
	f.Add([]byte("\x01\x01\x02\x03\x07\x08\x00\x10\x10"))      // removes + self-loop insert
	f.Add([]byte("insert-remove-insert the same edge twice!")) // printable soup
	f.Add([]byte("\x00\x38\x02\x00\x3b\x39\x02\x05\x3e" +
		"\x01\x38\x02\x04\x3b\x01\x02\x3c\x3d")) // growth: ids past n, negative u, unseen removal
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600] // bound the per-input work
		}
		const n = 48
		base := gen.ErdosRenyi(n, 96, 1234)
		mirror := base.Clone()
		algs := Algorithms()
		engines := make([]batchEngine, len(algs))
		for i, alg := range algs {
			engines[i] = newEngine(alg, base.Clone(), 3)
		}

		prev := make([][]int32, len(engines))
		for i, eng := range engines {
			prev[i] = eng.CoreNumbers()
		}
		var removes, inserts []graph.Edge
		flush := func() {
			if len(removes) == 0 && len(inserts) == 0 {
				return
			}
			// The pipeline's pre-round universe scan, verbatim: malformed
			// inserts dropped, growth for unseen insert endpoints, then
			// removals filtered against the grown N.
			inserts = filterEdges(inserts, func(e graph.Edge) bool { return e.U >= 0 && e.V >= 0 })
			if target := growTarget(inserts, mirror.N()); target > mirror.N() {
				mirror.Grow(target)
				for i := range engines {
					engines[i].Grow(target)
					prev[i] = append(prev[i], make([]int32, target-len(prev[i]))...)
				}
			}
			nv := int32(mirror.N())
			removes = filterEdges(removes, func(e graph.Edge) bool {
				return e.U >= 0 && e.V >= 0 && e.U < nv && e.V < nv
			})
			// Same order the pipeline applies a coalesced mixed batch:
			// removals first, then insertions.
			for _, e := range removes {
				mirror.RemoveEdge(e.U, e.V)
			}
			for _, e := range inserts {
				if e.U != e.V {
					mirror.AddEdge(e.U, e.V)
				}
			}
			truth, _ := bz.Decompose(mirror)
			for i, eng := range engines {
				var res BatchResult
				if len(removes) > 0 {
					eng.ApplyRemove(removes, &res)
				}
				if len(inserts) > 0 {
					eng.ApplyInsert(inserts, &res)
				}
				got := eng.CoreNumbers()
				for v := range truth {
					if got[v] != truth[v] {
						t.Fatalf("%v: core[%d] = %d, want %d (removes %v inserts %v)",
							algs[i], v, got[v], truth[v], removes, inserts)
					}
				}
				// A vertex whose core moved but is missing from the report
				// would leave a stale page after delta publication.
				reported := make(map[int32]bool, len(res.changed))
				for _, v := range res.changed {
					reported[v] = true
				}
				for v := range got {
					if got[v] != prev[i][v] && !reported[int32(v)] {
						t.Fatalf("%v: core[%d] moved %d→%d but was not reported",
							algs[i], v, prev[i][v], got[v])
					}
				}
				prev[i] = got
			}
			removes, inserts = removes[:0], inserts[:0]
		}
		for i := 0; i+2 < len(data); i += 3 {
			flags := data[i]
			u, v := int32(data[i+1])%(n+16), int32(data[i+2])%(n+16)
			if flags&4 != 0 {
				u = -u - 1 // malformed id: the universe scan must drop it
			}
			e := graph.Edge{U: u, V: v}
			if flags&1 == 0 {
				inserts = append(inserts, e)
			} else {
				removes = append(removes, e)
			}
			if flags&2 != 0 || len(inserts)+len(removes) >= 8 {
				flush()
			}
		}
		flush()
		for i, eng := range engines {
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", algs[i], err)
			}
		}
	})
}
