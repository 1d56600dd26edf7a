// Package repro's root benchmark suite regenerates the paper's evaluation
// as testing.B benchmarks — one benchmark family per table/figure. These run
// at CI scale; `go run ./cmd/experiments -exp all -scale medium` (or full)
// produces the complete tables with confidence intervals.
//
// Mapping (see DESIGN.md for the per-experiment index):
//
//	BenchmarkTable2Decompose    — static decomposition of the graph suite
//	BenchmarkFig1BatchSizes     — the V+/V* size distribution workload
//	BenchmarkFig4Insert/Remove  — running time vs workers, OurX vs JEX
//	BenchmarkTable3SpeedupData  — the 1-vs-max-worker pairs Table 3 derives
//	BenchmarkFig5Scalability    — runtime vs batch size
//	BenchmarkFig6Stability      — successive disjoint batches
//	BenchmarkAblation*          — design-choice ablations (DESIGN.md)
//	BenchmarkSmallBatchApply    — small-batch apply, ParallelOrder w=1 vs SequentialOrder
package repro

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/gen"
	"repro/internal/bz"
	"repro/internal/expr"
	"repro/internal/om"
	"repro/internal/traversal"
	"repro/kcore"
)

// benchGraphs is the representative subset used by the root benchmarks:
// one heavy-tailed stand-in, one near-uniform, and the two synthetic
// extremes (few core values vs a single core value).
var benchGraphs = []string{"livej", "roadNet-CA", "ER", "BA"}

const benchSeed = 42

func suiteWorkload(b *testing.B, name string, batch int) expr.Workload {
	b.Helper()
	sgs, err := expr.SuiteByName(expr.ScaleCI, benchSeed, name)
	if err != nil {
		b.Fatal(err)
	}
	return expr.BuildWorkload(sgs[0], batch, benchSeed)
}

// BenchmarkTable2Decompose measures the static BZ decomposition of every
// suite graph — the initialization cost every maintainer pays once.
func BenchmarkTable2Decompose(b *testing.B) {
	for _, sg := range expr.Suite(expr.ScaleCI, benchSeed) {
		g := sg.Build()
		b.Run(sg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bz.Decompose(g)
			}
		})
	}
}

// BenchmarkFig1BatchSizes runs the Fig. 1 workload (batch insert + remove
// with Parallel-Order) and reports the share of operations whose V+ stayed
// at most 10 — the paper's locality claim — as a custom metric.
func BenchmarkFig1BatchSizes(b *testing.B) {
	for _, name := range benchGraphs {
		w := suiteWorkload(b, name, 500)
		b.Run(name, func(b *testing.B) {
			small, total := 0, 0
			for i := 0; i < b.N; i++ {
				m := kcore.New(w.WithoutBatch(), kcore.WithWorkers(8))
				res := m.InsertEdges(w.Batch)
				for _, s := range res.VPlusSizes {
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

func runBatchBench(b *testing.B, w expr.Workload, alg kcore.Algorithm, workers int, insert bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var m *kcore.Maintainer
		if insert {
			m = kcore.New(w.WithoutBatch(), kcore.WithAlgorithm(alg), kcore.WithWorkers(workers))
		} else {
			m = kcore.New(w.Base.Clone(), kcore.WithAlgorithm(alg), kcore.WithWorkers(workers))
		}
		b.StartTimer()
		if insert {
			m.InsertEdges(w.Batch)
		} else {
			m.RemoveEdges(w.Batch)
		}
	}
}

// BenchmarkFig4Insert reproduces the insertion curves of Fig. 4: OurI
// (Parallel-Order) vs JEI (join-edge-set) across worker counts.
func BenchmarkFig4Insert(b *testing.B) {
	for _, name := range benchGraphs {
		w := suiteWorkload(b, name, 500)
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/OurI/w%d", name, workers), func(b *testing.B) {
				runBatchBench(b, w, kcore.ParallelOrder, workers, true)
			})
			b.Run(fmt.Sprintf("%s/JEI/w%d", name, workers), func(b *testing.B) {
				runBatchBench(b, w, kcore.JoinEdgeSet, workers, true)
			})
		}
	}
}

// BenchmarkFig4Remove reproduces the removal curves of Fig. 4: OurR vs JER.
func BenchmarkFig4Remove(b *testing.B) {
	for _, name := range benchGraphs {
		w := suiteWorkload(b, name, 500)
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/OurR/w%d", name, workers), func(b *testing.B) {
				runBatchBench(b, w, kcore.ParallelOrder, workers, false)
			})
			b.Run(fmt.Sprintf("%s/JER/w%d", name, workers), func(b *testing.B) {
				runBatchBench(b, w, kcore.JoinEdgeSet, workers, false)
			})
		}
	}
}

// BenchmarkTable3SpeedupData measures exactly the endpoint pairs Table 3 is
// computed from: every algorithm at 1 worker and at the maximum count.
func BenchmarkTable3SpeedupData(b *testing.B) {
	w := suiteWorkload(b, "BA", 500) // the level-parallel baseline's worst case
	for _, alg := range []struct {
		name string
		a    kcore.Algorithm
	}{{"Our", kcore.ParallelOrder}, {"JE", kcore.JoinEdgeSet}} {
		for _, workers := range []int{1, 16} {
			b.Run(fmt.Sprintf("%sI/w%d", alg.name, workers), func(b *testing.B) {
				runBatchBench(b, w, alg.a, workers, true)
			})
			b.Run(fmt.Sprintf("%sR/w%d", alg.name, workers), func(b *testing.B) {
				runBatchBench(b, w, alg.a, workers, false)
			})
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
				runBatchBench(b, w, kcore.ParallelOrder, 16, true)
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
			m := kcore.New(w.WithoutBatch(), kcore.WithWorkers(16))
			b.StartTimer()
			for g := 0; g < groups; g++ {
				m.InsertEdges(w.Batch[g*groupSize : (g+1)*groupSize])
			}
		}
	})
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationOrderVsTraversal contrasts the two sequential engines —
// the reason the paper parallelizes Order rather than Traversal. Expect
// Order to win insertion by a wide margin (the paper reports up to 2083x
// for the original implementations).
func BenchmarkAblationOrderVsTraversal(b *testing.B) {
	w := suiteWorkload(b, "ER", 500)
	b.Run("OrderInsert", func(b *testing.B) {
		runBatchBench(b, w, kcore.SequentialOrder, 1, true)
	})
	b.Run("TraversalInsert", func(b *testing.B) {
		runBatchBench(b, w, kcore.Traversal, 1, true)
	})
	b.Run("OrderRemove", func(b *testing.B) {
		runBatchBench(b, w, kcore.SequentialOrder, 1, false)
	})
	b.Run("TraversalRemove", func(b *testing.B) {
		runBatchBench(b, w, kcore.Traversal, 1, false)
	})
}

// BenchmarkAblationLockFreeOrder compares the lock-free OM Order operation
// against a mutex-guarded equivalent under concurrent readers — the paper's
// reason for adopting the lock-free comparison (§3.4).
func BenchmarkAblationLockFreeOrder(b *testing.B) {
	const n = 4096
	l := om.NewList(om.NewSlab(n), 0)
	for x := int32(0); x < n; x++ {
		l.InsertAtTail(x)
	}
	b.Run("LockFree", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				l.Order(int32(i%n), int32((i*7+13)%n))
				i++
			}
		})
	})
	var mu sync.Mutex
	b.Run("Mutexed", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.Lock()
				l.Order(int32(i%n), int32((i*7+13)%n))
				mu.Unlock()
				i++
			}
		})
	})
}

// BenchmarkAblationTieStrategy compares the three BZ tie-breaking strategies
// (§3.3.1); the paper selects "small degree first".
func BenchmarkAblationTieStrategy(b *testing.B) {
	g := gen.ErdosRenyi(5000, 20000, 1)
	for _, s := range []struct {
		name  string
		strat bz.TieStrategy
	}{
		{"SmallDegreeFirst", bz.SmallDegreeFirst},
		{"LargeDegreeFirst", bz.LargeDegreeFirst},
		{"RandomTie", bz.RandomTie},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bz.DecomposeWithStrategy(g, s.strat, 1)
			}
		})
	}
}

// BenchmarkAblationEagerVsLazyMCD contrasts the Traversal engine's eager
// mcd maintenance with the Order engines' lazy recomputation by measuring
// removal cost, where mcd is the driving structure.
func BenchmarkAblationEagerVsLazyMCD(b *testing.B) {
	base := gen.PowerLawCluster(5000, 10, 2.4, 3)
	batch := gen.SampleEdges(base, 500, 4)
	b.Run("LazyOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := kcore.New(base.Clone(), kcore.WithAlgorithm(kcore.SequentialOrder))
			b.StartTimer()
			m.RemoveEdges(batch)
		}
	})
	b.Run("EagerTraversal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := traversal.NewState(base.Clone())
			b.StartTimer()
			for _, e := range batch {
				st.RemoveEdge(e.U, e.V)
			}
		}
	})
}

// ------------------------------------------------------------- serving layer

// BenchmarkServeMixed measures the serving read path while update batches
// are continuously in flight: one background writer cycles insert/remove
// batches through the update pipeline, and parallel readers issue CoreOf
// queries against the published snapshots. Before the serving refactor a
// read had to wait for the writer's mutex, serializing queries behind
// multi-millisecond batches; now every read completes while the batch is
// in flight, so per-op time stays in nanoseconds.
func BenchmarkServeMixed(b *testing.B) {
	base := gen.ErdosRenyi(20_000, 80_000, benchSeed)
	pool := gen.SampleNonEdges(base, 2_000, benchSeed+1)
	n := int32(base.N())
	m := kcore.New(base, kcore.WithWorkers(4))
	defer m.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var batches int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.InsertEdges(pool)
			m.RemoveEdges(pool)
			batches += 2
		}
	}()

	b.Run("CoreOf", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			v := uint32(1)
			for pb.Next() {
				v = v*1664525 + 1013904223 // per-goroutine LCG
				m.CoreOf(int32(v % uint32(n)))
			}
		})
	})
	b.Run("Snapshot+CoreOf", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			v := uint32(1)
			for pb.Next() {
				s := m.Snapshot()
				v = v*1664525 + 1013904223
				s.CoreOf(int32(v % uint32(n)))
			}
		})
	})
	b.Run("MaxCore", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.MaxCore()
			}
		})
	})
	close(stop)
	wg.Wait()
	if batches == 0 {
		b.Fatal("writer applied no batches while readers ran")
	}
	b.ReportMetric(float64(batches), "writer-batches")
}

// BenchmarkServeSingleEdgeWriters measures pipeline coalescing: parallel
// writers each push single-edge insert/remove pairs, the applier folds
// whatever is pending into shared engine rounds. The coalesced ops/batch
// ratio is reported as a custom metric.
func BenchmarkServeSingleEdgeWriters(b *testing.B) {
	base := gen.ErdosRenyi(20_000, 80_000, benchSeed)
	pool := gen.SampleNonEdges(base, 4_096, benchSeed+2)
	m := kcore.New(base, kcore.WithWorkers(4))
	defer m.Close()
	before := m.ServingStats()
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e := pool[int(atomic.AddInt64(&next, 1))%len(pool)]
			m.InsertEdge(e.U, e.V)
			m.RemoveEdge(e.U, e.V)
		}
	})
	b.StopTimer()
	st := m.ServingStats()
	if db := st.Batches - before.Batches; db > 0 {
		b.ReportMetric(float64(st.BatchedOps-before.BatchedOps)/float64(db), "ops/batch")
	}
}

// BenchmarkVertexChurn measures the streaming-graph growth path: a stream
// of vertex-arrival batches (each naming a fresh vertex id, auto-growing
// the universe through the pipeline) interleaved with removals of earlier
// arrival edges. Publication must stay on the grow/delta paths — the run
// fails if any post-initial publish fell back to the O(n) rebuild.
func BenchmarkVertexChurn(b *testing.B) {
	const baseN, arrivals, attach = 20_000, 200, 4
	stream := gen.VertexArrivals(baseN, arrivals, attach, benchSeed+3)
	for _, alg := range []kcore.Algorithm{kcore.ParallelOrder, kcore.JoinEdgeSet} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := kcore.New(gen.ErdosRenyi(baseN, 80_000, benchSeed), kcore.WithAlgorithm(alg), kcore.WithWorkers(4))
				b.StartTimer()
				for j, batch := range stream {
					m.InsertEdges(batch)
					if j%4 == 3 {
						m.RemoveEdges(stream[j-2])
					}
				}
				b.StopTimer()
				st := m.ServingStats()
				if st.FullPublishes != 1 {
					b.Fatalf("churn fell back to %d O(n) rebuilds", st.FullPublishes-1)
				}
				if st.GrowPublishes == 0 || st.DeltaPublishes == 0 {
					b.Fatalf("churn missed the grow/delta paths: %+v", st)
				}
				m.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(arrivals), "arrivals/op")
		})
	}
}

// BenchmarkWorkerScaling measures the Parallel-Order batch across worker
// counts on a graph where all vertices share one core value — the case
// where only Parallel-Order can use more than one worker at all.
func BenchmarkWorkerScaling(b *testing.B) {
	base := gen.BarabasiAlbert(20000, 4, 5)
	batch := gen.SampleEdges(base, 2000, 6)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			w := expr.Workload{Base: base, Batch: batch}
			runBatchBench(b, w, kcore.ParallelOrder, workers, false)
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
