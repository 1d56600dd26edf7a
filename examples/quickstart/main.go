// Quickstart: build a graph, maintain core numbers through edge insertions
// and removals, and read the results.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/graph"
	"repro/kcore"
)

func main() {
	// A path 0-1-2 plus an isolated vertex 3: everything is core <= 1.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m := kcore.New(g) // ParallelOrder engine, 1 worker by default
	defer m.Close()

	fmt.Println("initial cores:", m.CoreNumbers()) // [1 1 1 0]

	// Closing the triangle lifts vertices 0,1,2 to core 2.
	res := m.InsertEdge(0, 2)
	fmt.Printf("insert (0,2): %d edges applied, %d cores changed\n",
		res.Applied, res.ChangedVertices)
	fmt.Println("after insert:", m.CoreNumbers()) // [2 2 2 0]

	// Batches work the same way and are how the parallel engine shines.
	batch := []graph.Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}}
	m.InsertEdges(batch)
	fmt.Println("after batch: ", m.CoreNumbers()) // [3 3 3 3] — K4

	// Removal maintains cores too.
	m.RemoveEdge(0, 1)
	fmt.Println("after remove:", m.CoreNumbers()) // [2 2 2 2]

	// A snapshot is one immutable view: its epoch, max core and core
	// numbers all belong to the same published state.
	s := m.Snapshot()
	fmt.Println("snapshot: epoch", s.Epoch(), "max core", s.MaxCore(), "core of 3", s.CoreOf(3))

	// Check() recomputes from scratch and compares — handy in tests.
	if err := m.Check(); err != nil {
		panic(err)
	}
	fmt.Println("maintained cores verified against a fresh decomposition")
}
