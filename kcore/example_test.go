package kcore_test

import (
	"fmt"

	"repro/graph"
	"repro/kcore"
)

// Building a maintainer and applying single-edge updates.
func ExampleNew() {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m := kcore.New(g)
	fmt.Println(m.CoreNumbers())
	m.InsertEdge(0, 2) // close the triangle
	fmt.Println(m.CoreNumbers())
	// Output:
	// [1 1 1]
	// [2 2 2]
}

// Batches are the unit of parallelism: with WithWorkers(n), n goroutines
// process the batch concurrently under the Parallel-Order protocol.
func ExampleMaintainer_InsertEdges() {
	m := kcore.New(graph.New(4), kcore.WithWorkers(2))
	res := m.InsertEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 1, V: 3}, {U: 2, V: 3}, // K4
	})
	fmt.Println(res.Applied, m.MaxCore())
	// Output: 6 3
}

// Choosing a different maintenance engine.
func ExampleWithAlgorithm() {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	m := kcore.New(g, kcore.WithAlgorithm(kcore.Traversal))
	fmt.Println(m.Algorithm(), m.MaxCore())
	// Output: Traversal 2
}
