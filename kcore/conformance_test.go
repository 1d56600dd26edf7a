package kcore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// The cross-engine conformance suite: one table of scripted
// insert/remove/mixed scenarios, each run through every registered engine
// via the Engine interface. After every batch the engine's cores must be
// byte-equal to a fresh BZ decomposition of a mirror graph, the vertices
// the engine reported must cover every vertex whose core moved (delta
// snapshot publication depends on that; repeats are allowed), and
// the engine's own invariants must hold at the end. This replaces the
// per-engine copies of the agree-with-Decompose assertion that individual
// tests used to carry.

// confStep is one scripted batch of a conformance scenario.
type confStep struct {
	insert bool
	edges  []graph.Edge
}

// confScenario builds a base graph and a deterministic batch script.
type confScenario struct {
	name  string
	build func() (*graph.Graph, []confStep)
}

var confScenarios = []confScenario{
	{"insert-batches", func() (*graph.Graph, []confStep) {
		base := gen.ErdosRenyi(400, 1200, 101)
		pool := gen.SampleNonEdges(base, 180, 102)
		var steps []confStep
		for i := 0; i < 6; i++ {
			steps = append(steps, confStep{insert: true, edges: pool[i*30 : (i+1)*30]})
		}
		return base, steps
	}},
	{"remove-batches", func() (*graph.Graph, []confStep) {
		base := gen.ErdosRenyi(400, 1600, 103)
		pool := gen.SampleEdges(base, 240, 104)
		var steps []confStep
		for i := 0; i < 6; i++ {
			steps = append(steps, confStep{insert: false, edges: pool[i*40 : (i+1)*40]})
		}
		return base, steps
	}},
	{"mixed", func() (*graph.Graph, []confStep) {
		base := gen.BarabasiAlbert(300, 3, 105)
		ins := gen.SampleNonEdges(base, 120, 106)
		rem := gen.SampleEdges(base, 120, 107)
		var steps []confStep
		for i := 0; i < 4; i++ {
			steps = append(steps,
				confStep{insert: true, edges: ins[i*30 : (i+1)*30]},
				confStep{insert: false, edges: rem[i*30 : (i+1)*30]})
		}
		// Re-insert the removed edges: exercises promotion back through
		// levels the removals vacated.
		steps = append(steps, confStep{insert: true, edges: rem})
		return base, steps
	}},
	{"degenerate", func() (*graph.Graph, []confStep) {
		base := gen.ErdosRenyi(120, 360, 108)
		fresh := gen.SampleNonEdges(base, 30, 109)
		present := gen.SampleEdges(base, 20, 110)
		dupIns := append(append([]graph.Edge{}, fresh...), fresh...)   // duplicates
		dupIns = append(dupIns, graph.Edge{U: 5, V: 5})                // self-loop
		dupIns = append(dupIns, present...)                            // already present
		absRem := append(append([]graph.Edge{}, present...), fresh...) // fresh now present
		absRem = append(absRem, graph.Edge{U: 7, V: 7})                // self-loop
		absRem = append(absRem, absRem[0])                             // double removal
		return base, []confStep{
			{insert: true, edges: dupIns},
			{insert: false, edges: absRem},
			{insert: false, edges: absRem}, // all absent by now
		}
	}},
	{"grow-on-insert", func() (*graph.Graph, []confStep) {
		// Vertex arrivals interleaved with ordinary edge traffic: every
		// insert step names fresh ids just past the universe the earlier
		// steps built, so each step grows the engine mid-script.
		base := gen.ErdosRenyi(150, 450, 115)
		ins := gen.SampleNonEdges(base, 60, 116)
		arr := gen.VertexArrivals(150, 30, 3, 117) // ids 150..179
		var steps []confStep
		for i := 0; i < 6; i++ {
			var batch []graph.Edge
			for _, a := range arr[i*5 : (i+1)*5] {
				batch = append(batch, a...)
			}
			steps = append(steps, confStep{insert: true, edges: append(batch, ins[i*10:(i+1)*10]...)})
		}
		// Departures on the grown range (the universe itself never
		// shrinks), then re-arrival traffic over the vacated vertices.
		steps = append(steps,
			confStep{insert: false, edges: append(append([]graph.Edge{}, arr[0]...), arr[7]...)},
			confStep{insert: true, edges: arr[0]})
		return base, steps
	}},
	{"grow-jump", func() (*graph.Graph, []confStep) {
		// A single insert naming a far-away id mints the whole gap at
		// once; the fresh vertices then form structure of their own.
		base := gen.ErdosRenyi(80, 240, 118)
		return base, []confStep{
			{insert: true, edges: []graph.Edge{{U: 5, V: 200}}},
			{insert: true, edges: []graph.Edge{
				{U: 190, V: 191}, {U: 191, V: 192}, {U: 192, V: 190}, // triangle in the gap
				{U: 200, V: 190},
			}},
			{insert: false, edges: []graph.Edge{{U: 192, V: 190}, {U: 5, V: 200}}},
		}
	}},
	{"deep-collapse", func() (*graph.Graph, []confStep) {
		// Dense small graph: removals drop vertices several core levels,
		// so one batch reports the same vertex several times.
		base := gen.ErdosRenyi(64, 960, 111)
		pool := gen.SampleEdges(base, 600, 112)
		var steps []confStep
		for i := 0; i < 5; i++ {
			steps = append(steps, confStep{insert: false, edges: pool[i*120 : (i+1)*120]})
		}
		steps = append(steps, confStep{insert: true, edges: pool[:240]})
		return base, steps
	}},
}

func TestEngineConformance(t *testing.T) {
	for _, sc := range confScenarios {
		sc := sc
		for _, alg := range Algorithms() {
			alg := alg
			t.Run(fmt.Sprintf("%s/%v", sc.name, alg), func(t *testing.T) {
				t.Parallel()
				base, steps := sc.build()
				mirror := base.Clone()
				eng := newEngine(alg, base, 4)

				prev := eng.Cores()
				for i, step := range steps {
					var s BatchResult
					if step.insert {
						// The pipeline's pre-round universe scan: grow for
						// unseen insert endpoints before the engine round.
						if target := growTarget(step.edges, base.N()); target > base.N() {
							eng.Grow(target)
							mirror.Grow(target)
							prev = append(prev, make([]int32, target-len(prev))...)
						}
						eng.ApplyInsert(step.edges, &s)
						for _, e := range step.edges {
							if e.U != e.V {
								mirror.AddEdge(e.U, e.V)
							}
						}
					} else {
						eng.ApplyRemove(step.edges, &s)
						for _, e := range step.edges {
							mirror.RemoveEdge(e.U, e.V)
						}
					}

					truth, _ := bz.Decompose(mirror)
					got := eng.Cores()
					if len(got) != len(truth) {
						t.Fatalf("step %d: %d cores, want %d", i, len(got), len(truth))
					}
					for v := range truth {
						if got[v] != truth[v] {
							t.Fatalf("step %d: core[%d] = %d, want %d", i, v, got[v], truth[v])
						}
					}

					// The report must cover every vertex whose core moved:
					// delta publication patches only what is reported.
					reported := make(map[int32]bool, len(s.changed))
					for _, v := range s.changed {
						reported[v] = true
					}
					for v := range truth {
						if truth[v] != prev[v] && !reported[int32(v)] {
							t.Fatalf("step %d: core[%d] moved %d→%d but was not reported",
								i, v, prev[v], truth[v])
						}
					}
					if s.ChangedVertices < len(reported) {
						t.Fatalf("step %d: ChangedVertices = %d < %d distinct changed",
							i, s.ChangedVertices, len(reported))
					}
					prev = got
				}
				if err := eng.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestEngineConformanceRandomized drives every registered engine through
// the same rng-scripted mixed batches (a lighter-weight sibling of
// FuzzMixedBatch that always runs) and cross-checks the engines against
// each other as well as against BZ ground truth.
func TestEngineConformanceRandomized(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	const n = 160
	base := gen.ErdosRenyi(n, 480, 113)
	mirror := base.Clone()
	algs := Algorithms()
	engines := make([]Engine, len(algs))
	for i, alg := range algs {
		engines[i] = newEngine(alg, base.Clone(), 3)
	}
	rng := rand.New(rand.NewSource(114))
	for round := 0; round < rounds; round++ {
		k := 1 + rng.Intn(10)
		batch := make([]graph.Edge, 0, k)
		for i := 0; i < k; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v {
				batch = append(batch, graph.Edge{U: u, V: v})
			}
		}
		insert := rng.Intn(2) == 0
		for _, e := range batch {
			if insert {
				mirror.AddEdge(e.U, e.V)
			} else {
				mirror.RemoveEdge(e.U, e.V)
			}
		}
		truth, _ := bz.Decompose(mirror)
		for i, eng := range engines {
			if insert {
				eng.ApplyInsert(batch, new(BatchResult))
			} else {
				eng.ApplyRemove(batch, new(BatchResult))
			}
			got := eng.Cores()
			for v := range truth {
				if got[v] != truth[v] {
					t.Fatalf("round %d: %v core[%d] = %d, want %d", round, algs[i], v, got[v], truth[v])
				}
			}
		}
	}
	for i, eng := range engines {
		if err := eng.Check(); err != nil {
			t.Fatalf("%v: %v", algs[i], err)
		}
	}
}
