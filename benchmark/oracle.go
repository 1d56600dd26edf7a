package main

import (
	"fmt"

	"repro/graph"
	"repro/kcore"
)

// churner walks one slice of existing edges in fixed chunks: it removes
// a block of them, re-inserts that block, moves to the next block, and
// wraps. Every op does real maintenance work, the graph stays within one
// block of the generated one, and — the blocks being short beside a run —
// removes and inserts are half the ops each wherever the clock stops the
// run, so no count or rate depends on how far a run got. Its position is
// also the generator's record of which edges are currently acked as
// removed: the mirror the oracle decomposes.
type churner struct {
	edges     []graph.Edge
	chunk     int // edges per call of next
	block     int // edges removed before they are re-inserted; divides len(edges)
	base, pos int // current block, and how far into it
	inserting bool
}

// newChurner trims edges to whole blocks.
func newChurner(edges []graph.Edge, chunk, block int) *churner {
	block = min(block, len(edges))
	return &churner{edges: edges[:len(edges)/block*block], chunk: chunk, block: block}
}

// next returns the next chunk and whether it is to be inserted.
func (c *churner) next() ([]graph.Edge, bool) {
	end := min(c.pos+c.chunk, c.block)
	es, ins := c.edges[c.base+c.pos:c.base+end], c.inserting
	c.pos = end
	if c.pos == c.block {
		c.pos, c.inserting = 0, !c.inserting
		if !c.inserting {
			c.base = (c.base + c.block) % len(c.edges)
		}
	}
	return es, ins
}

// removed returns the edges acked as removed and not yet re-inserted.
func (c *churner) removed() []graph.Edge {
	b := c.edges[c.base : c.base+c.block]
	if c.inserting {
		return b[c.pos:]
	}
	return b[:c.pos]
}

// mirrorOf rebuilds the generator's acked-edge mirror: the pristine
// graph minus what the churners currently hold removed.
func mirrorOf(base *graph.Graph, e *env, churners ...*churner) *graph.Graph {
	g := base.Clone()
	for _, c := range churners {
		for _, ed := range c.removed() {
			g.RemoveEdge(ed.U, ed.V)
		}
	}
	if e.corrupt {
		hub := int32(0)
		for v := 1; v < g.N(); v++ {
			if g.Degree(int32(v)) > g.Degree(hub) {
				hub = int32(v)
			}
		}
		for _, u := range append([]int32(nil), g.Adj(hub)...) {
			g.RemoveEdge(hub, u)
		}
	}
	return g
}

// equalCores requires the served cores to equal BZ on the mirror,
// vertex for vertex.
func equalCores(served []int32, mirror *graph.Graph) error {
	want := kcore.Decompose(mirror)
	if len(served) != len(want) {
		return fmt.Errorf("served %d core numbers, oracle has %d vertices", len(served), len(want))
	}
	bad, first := 0, -1
	for v := range want {
		if served[v] != want[v] {
			if first < 0 {
				first = v
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d core numbers differ from BZ (first: vertex %d served %d, oracle %d)",
			bad, len(want), first, served[first], want[first])
	}
	return nil
}
