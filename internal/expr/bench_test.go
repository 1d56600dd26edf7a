package expr

// The paper's evaluation as testing.B families, one per table or figure, at
// CI scale: `go test -run '^$' -bench . ./internal/expr`. `go run
// ./cmd/experiments -exp all -scale medium` (or full) prints the complete
// tables with confidence intervals. Every family that times a series goes
// through the same series table and start helper as the Run functions.

import (
	"fmt"
	"testing"

	"repro/gen"
	"repro/internal/bz"
	"repro/kcore"
)

// benchGraphs is the representative subset the families run on: one
// heavy-tailed stand-in, one near-uniform, and the two synthetic extremes
// (few core values vs a single core value).
var benchGraphs = []string{"livej", "roadNet-CA", "ER", "BA"}

const benchSeed = 42

func suiteWorkload(b *testing.B, name string, batch int) Workload {
	b.Helper()
	sgs, err := SuiteByName(ScaleCI, benchSeed, name)
	if err != nil {
		b.Fatal(err)
	}
	return BuildWorkload(sgs[0], batch, benchSeed)
}

// benchSeries times step(w.Batch) on a fresh start of s per iteration.
func benchSeries(b *testing.B, s series, w Workload, workers int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := s.start(w, workers)
		b.StartTimer()
		step(w.Batch)
	}
}

// BenchmarkTable2Decompose measures the static BZ decomposition of every
// suite graph — the initialization cost every maintainer pays once.
func BenchmarkTable2Decompose(b *testing.B) {
	for _, sg := range Suite(ScaleCI, benchSeed) {
		g := sg.Build()
		b.Run(sg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bz.Decompose(g)
			}
		})
	}
}

// BenchmarkFig1BatchSizes runs the Fig. 1 workload (batch insert with
// Parallel-Order) and reports the share of operations whose V+ stayed at
// most 10 — the paper's locality claim — as a custom metric.
func BenchmarkFig1BatchSizes(b *testing.B) {
	for _, name := range benchGraphs {
		w := suiteWorkload(b, name, 500)
		b.Run(name, func(b *testing.B) {
			small, total := 0, 0
			for i := 0; i < b.N; i++ {
				for _, s := range paperSeries[0].start(w, 8)(w.Batch).VPlusSizes {
					if s <= 10 {
						small++
					}
					total++
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(small)/float64(total), "%ops<=10")
			}
		})
	}
}

// BenchmarkFig4 reproduces the running-time curves of Fig. 4 — OurI/OurR
// (Parallel-Order) against JEI/JER (join-edge-set) across worker counts.
// Its BA w1 and w16 rows are the endpoint pairs Table 3 is computed from:
// BA is the level-parallel baseline's worst case.
func BenchmarkFig4(b *testing.B) {
	for _, name := range benchGraphs {
		w := suiteWorkload(b, name, 500)
		for _, s := range paperSeries {
			for _, workers := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/w%d", name, s.name, workers), func(b *testing.B) {
					benchSeries(b, s, w, workers)
				})
			}
		}
	}
}

// BenchmarkFig5Scalability grows the batch from 1x to 4x at a fixed worker
// count — the runtime should scale near-linearly for Parallel-Order.
func BenchmarkFig5Scalability(b *testing.B) {
	for _, name := range []string{"livej", "roadNet-CA"} {
		for _, mult := range []int{1, 2, 4} {
			w := suiteWorkload(b, name, 250*mult)
			b.Run(fmt.Sprintf("%s/batch%dx", name, mult), func(b *testing.B) {
				benchSeries(b, paperSeries[0], w, 16)
			})
		}
	}
}

// BenchmarkFig6Stability applies disjoint groups one after another on a
// single maintainer — per-group cost should stay flat for Parallel-Order.
func BenchmarkFig6Stability(b *testing.B) {
	const groups, groupSize = 5, 200
	w := suiteWorkload(b, "livej", groups*groupSize)
	b.Run("livej/OurI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			step := paperSeries[0].start(w, 16)
			b.StartTimer()
			for g := 0; g < groups; g++ {
				step(w.Batch[g*groupSize : (g+1)*groupSize])
			}
		}
	})
}

// BenchmarkAblationOrderVsTraversal contrasts the two sequential engines —
// the reason the paper parallelizes Order rather than Traversal. Expect
// Order to win insertion by a wide margin (the paper reports up to 2083x
// for the original implementations). The removal rows also contrast the
// Order engine's lazy mcd recomputation with Traversal's eager mcd
// maintenance, since mcd is what drives a removal.
func BenchmarkAblationOrderVsTraversal(b *testing.B) {
	w := suiteWorkload(b, "ER", 500)
	for _, s := range []series{
		{"OrderInsert", kcore.SequentialOrder, true},
		{"TraversalInsert", kcore.Traversal, true},
		{"OrderRemove", kcore.SequentialOrder, false},
		{"TraversalRemove", kcore.Traversal, false},
	} {
		b.Run(s.name, func(b *testing.B) {
			benchSeries(b, s, w, 1)
		})
	}
}

// BenchmarkSmallBatchApply is the engine's ledger row: the library loop of a
// writer that applies small batches — remove a slice of real edges, insert it
// back — on the heavy-tailed social stand-in, where one low-core vertex sits
// next to a hub with tens of thousands of neighbors. Parallel-Order on one
// worker is meant to cost what sequential Order costs (Fig. 4) at every batch
// size (Fig. 5); edges/s is the figure to compare across the two engines.
func BenchmarkSmallBatchApply(b *testing.B) {
	const n, pool = 50_000, 1 << 14
	base := gen.PowerLawCluster(n, 14.2, 2.4, benchSeed)
	churn := gen.SampleEdges(base, pool, benchSeed+1)
	for _, alg := range []kcore.Algorithm{kcore.ParallelOrder, kcore.SequentialOrder} {
		for _, batch := range []int{1, 16, 1024} {
			b.Run(fmt.Sprintf("%s/batch%d", alg, batch), func(b *testing.B) {
				m := kcore.New(base.Clone(), kcore.WithAlgorithm(alg), kcore.WithWorkers(1))
				defer m.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := (i * batch) % pool
					s := churn[lo : lo+batch]
					m.RemoveEdges(s)
					m.InsertEdges(s)
				}
				b.ReportMetric(float64(2*batch*b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}
