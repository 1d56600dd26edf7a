package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
)

// socialGraph is the benchmarks' input: the 200 000-vertex power-law graph
// that the whole-stack benchmark's single-node workloads serve.
var socialGraph = sync.OnceValue(func() *graph.Graph {
	return gen.PowerLawCluster(200_000, 14.2, 2.4, 1)
})

// BenchmarkRecomputeDout prices the repair pass per scanned adjacency entry
// on its costliest targets, the hubs: it recomputes the d⁺out of the 64
// highest-degree vertices of the social graph, whose neighbors sit below,
// at and above their core.
func BenchmarkRecomputeDout(b *testing.B) {
	g := socialGraph()
	st := NewState(g)
	hubs := make([]int32, g.N())
	for v := range hubs {
		hubs[v] = int32(v)
	}
	slices.SortFunc(hubs, func(x, y int32) int { return g.Degree(y) - g.Degree(x) })
	hubs = hubs[:64]
	entries := 0
	for _, v := range hubs {
		entries += g.Degree(v)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, v := range hubs {
			st.RecomputeDout(v)
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*entries), "ns/entry")
}

// BenchmarkRebuild prices one Rebuild of the social graph: the BZ peel, the
// k-order lists and every per-vertex array.
func BenchmarkRebuild(b *testing.B) {
	st := NewState(socialGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Rebuild(nil)
	}
}
