// Package expr is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation (§6) — the graph suite of Table 2, the
// V+/V* size histogram of Fig. 1, the running-time-vs-workers curves of
// Fig. 4, the speedup table Table 3, the scalability ratios of Fig. 5 and
// the stability series of Fig. 6 — over seeded synthetic stand-ins for the
// paper's graphs (DESIGN.md, substitution 1).
package expr

import (
	"fmt"

	"repro/gen"
	"repro/graph"
)

// Scale selects experiment sizing. The paper runs 1M-vertex graphs with
// 100k-edge batches on a 64-core machine; the default "ci" scale shrinks
// everything so the full suite completes on a laptop CPU in seconds while
// preserving every shape the experiments measure.
type Scale string

const (
	// scaleCI: ~2k vertices per graph, 1k-edge batches. Seconds.
	scaleCI Scale = "ci"
	// scaleMedium: ~20k vertices, 10k-edge batches. Minutes.
	scaleMedium Scale = "medium"
	// scaleFull: paper-scale 1M vertices, 100k-edge batches. Hours on a
	// laptop; intended for real multicore machines.
	scaleFull Scale = "full"
)

// ParseScale converts a command-line scale name to a Scale; a name that is
// not one of ci, medium and full is an error.
func ParseScale(s string) (Scale, error) {
	switch sc := Scale(s); sc {
	case scaleCI, scaleMedium, scaleFull:
		return sc, nil
	}
	return "", fmt.Errorf("unknown scale %q (want ci|medium|full)", s)
}

// params returns (n, batch) for a scale.
func (s Scale) params() (int, int) {
	switch s {
	case scaleMedium:
		return 20000, 10000
	case scaleFull:
		return 1000000, 100000
	default:
		return 2000, 1000
	}
}

// SuiteGraph is one row of Table 2: a named graph with its generator.
type SuiteGraph struct {
	// Name matches the graph name in the paper's Table 2.
	Name string
	// StandIn documents what synthetic model replaces the original data
	// (the real SNAP/KONECT files are unavailable offline).
	StandIn string
	// Temporal marks the four KONECT temporal graphs; their batches are
	// taken from a contiguous time range of a synthetic timestamped
	// stream instead of uniform sampling (§6.2).
	Temporal bool
	// Build generates the graph.
	Build func() *graph.Graph
}

// Suite returns the 16-graph stand-in suite of Table 2 at the given scale.
// The same (scale, seed) pair always produces identical graphs.
func Suite(scale Scale, seed int64) []SuiteGraph {
	n, _ := scale.params()
	plc := func(avg, exp float64, s int64) func() *graph.Graph {
		return func() *graph.Graph { return gen.PowerLawCluster(n, avg, exp, seed+s) }
	}
	return []SuiteGraph{
		// Real-world SNAP/KONECT graphs -> degree-matched stand-ins.
		{Name: "livej", StandIn: "power-law, avg deg 14.2, heavy tail", Build: plc(14.2, 2.4, 1)},
		{Name: "patent", StandIn: "power-law, avg deg 2.75, mild tail", Build: plc(2.75, 3.0, 2)},
		{Name: "wikitalk", StandIn: "power-law, avg deg 2.1, extreme tail", Build: plc(2.1, 2.1, 3)},
		{Name: "roadNet-CA", StandIn: "small-world lattice, avg deg 2.8, max k 3", Build: func() *graph.Graph {
			return gen.WattsStrogatz(n, 1, 0.05, seed+4)
		}},
		{Name: "dbpedia", StandIn: "power-law, avg deg 3.5", Build: plc(3.5, 2.4, 5)},
		{Name: "baidu", StandIn: "power-law, avg deg 8.3", Build: plc(8.3, 2.3, 6)},
		{Name: "pokec", StandIn: "power-law, avg deg 18.8", Build: plc(18.8, 2.6, 7)},
		{Name: "wiki-talk-en", StandIn: "power-law, avg deg 8.4, heavy tail", Build: plc(8.4, 2.2, 8)},
		{Name: "wiki-links-en", StandIn: "power-law, avg deg 22.8", Build: plc(22.8, 2.3, 9)},
		// Synthetic graphs: the same models as the paper.
		{Name: "ER", StandIn: "Erdős–Rényi, avg deg 8 (few core values)", Build: func() *graph.Graph {
			return gen.ErdosRenyi(n, int64(4*n), seed+10)
		}},
		{Name: "BA", StandIn: "Barabási–Albert, avg deg 8 (single core value)", Build: func() *graph.Graph {
			return gen.BarabasiAlbert(n, 4, seed+11)
		}},
		{Name: "RMAT", StandIn: "R-MAT, avg deg 8 (wide core spectrum)", Build: func() *graph.Graph {
			return gen.RMAT(log2ceil(n), int64(4*n), seed+12)
		}},
		// Temporal KONECT graphs -> stand-ins with timestamped streams.
		{Name: "DBLP", StandIn: "power-law, avg deg 16.2 + timestamps", Temporal: true, Build: plc(16.2, 2.5, 13)},
		{Name: "Flickr", StandIn: "power-law, avg deg 14.4 + timestamps", Temporal: true, Build: plc(14.4, 2.2, 14)},
		{Name: "StackOverflow", StandIn: "power-law, avg deg 24.4 + timestamps", Temporal: true, Build: plc(24.4, 2.4, 15)},
		{Name: "wiki-edits-sh", StandIn: "power-law, avg deg 8.8 + timestamps", Temporal: true, Build: plc(8.8, 2.3, 16)},
	}
}

// suiteByName returns the named suite entries, in the given order.
func suiteByName(scale Scale, seed int64, names ...string) ([]SuiteGraph, error) {
	all := Suite(scale, seed)
	var out []SuiteGraph
	for _, name := range names {
		found := false
		for _, sg := range all {
			if sg.Name == name {
				out = append(out, sg)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("expr: unknown suite graph %q", name)
		}
	}
	return out, nil
}

func log2ceil(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}

// workload is a pair of edge batches for one graph: Insert is applied to a
// graph missing those edges; Remove is applied to the full graph. For
// temporal graphs the batch is the latest contiguous slice of the stream.
type workload struct {
	// Base is the graph the removal batch applies to; the insertion run
	// starts from Base minus the batch.
	Base  *graph.Graph
	Batch []graph.Edge
}

// buildWorkload samples a batch of `size` edges of sg's graph (time-sliced
// for temporal graphs, uniform otherwise).
func buildWorkload(sg SuiteGraph, size int, seed int64) workload {
	g := sg.Build()
	var batch []graph.Edge
	if sg.Temporal {
		stream := gen.TemporalStream(g, seed)
		if size > len(stream) {
			size = len(stream)
		}
		for _, te := range stream[len(stream)-size:] {
			batch = append(batch, te.E)
		}
	} else {
		batch = gen.SampleEdges(g, size, seed)
	}
	return workload{Base: g, Batch: batch}
}

// withoutBatch returns a copy of the base graph with the batch removed —
// the starting point of an insertion measurement.
func (w workload) withoutBatch() *graph.Graph {
	g := w.Base.Clone()
	for _, e := range w.Batch {
		g.RemoveEdge(e.U, e.V)
	}
	return g
}
