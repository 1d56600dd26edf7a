package expr

import (
	"fmt"
	"runtime"
	"text/tabwriter"

	"repro/gen"
	"repro/graph"
	"repro/internal/core"
	"repro/kcore"
)

// RunMemory prices the maintenance state on the benchmark's burst-batch
// input (benchmark/inputs.go, full scale: PowerLawCluster(200 000, 14.2,
// 2.4) from graph seed 1): the live heap each owner adds as kcore.New's
// path builds it, in bytes per vertex and per adjacency entry. The scalar
// row is the six 4-byte per-vertex arrays of core.State; the OM row is
// the rest of core.NewState.
func RunMemory(cfg Config) {
	const n = 200_000
	cfg.printf("Memory — live heap by owner, burst-batch input (n = %d), ParallelOrder with 2 workers\n", n)
	h0 := liveHeap()
	g := gen.PowerLawCluster(n, 14.2, 2.4, 1)
	h1 := liveHeap()
	clone := g.Clone()
	h2 := liveHeap()
	st := core.NewState(clone)
	h3 := liveHeap()
	runtime.KeepAlive(st) // dropped from here on: kcore.New takes the clone
	m := kcore.New(clone, kcore.WithAlgorithm(kcore.ParallelOrder), kcore.WithWorkers(2))
	h4 := liveHeap()
	entries := 2 * g.M()

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Owner\tMiB\tB/vertex\tB/entry")
	row := func(name string, bytes int64, perEntry bool) {
		e := "-"
		if perEntry {
			e = fmt.Sprintf("%.2f", float64(bytes-int64(graph.RecordBytes)*n)/float64(entries))
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%s\n", name, float64(bytes)/(1<<20), float64(bytes)/n, e)
	}
	scalars := int64(6 * 4 * n)
	row("graph, pristine", delta(h0, h1), true)
	row("graph, engine clone", delta(h1, h2), true)
	row("core.State scalars (Core Dout Mcd S T Locks)", scalars, false)
	row("core.State OM (k-order lists)", delta(h2, h3)-scalars, false)
	row("rest of kcore.New (engine, snapshot, pipeline)", delta(h2, h4)-delta(h2, h3), false)
	row("kcore.New total", delta(h2, h4), false)
	tw.Flush()
	cfg.printf("(%d adjacency entries; B/entry is a graph's bytes beyond its %d-byte record per vertex)\n", entries, graph.RecordBytes)
	m.Close()
	runtime.KeepAlive(g)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func delta(before, after uint64) int64 { return int64(after) - int64(before) }
