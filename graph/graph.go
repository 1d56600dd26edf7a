// Package graph provides the dynamic undirected graph substrate for core
// maintenance: adjacency arrays with O(1) insertion and O(deg) removal
// (the paper stores edges in arrays, §6.3), plus edge-list I/O and batch
// construction with self-loop/duplicate stripping (§6.2).
//
// Concurrency contract: the maintenance algorithms only read or mutate the
// adjacency of a vertex while holding that vertex's lock, so Graph performs
// no internal synchronization. Race-detector runs of the parallel algorithms
// validate the discipline.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int32
}

// Norm returns the edge with endpoints ordered U <= V, the canonical form
// used for deduplication.
func (e Edge) Norm() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is a dynamic undirected simple graph over vertices 0..n-1.
type Graph struct {
	adj [][]int32
	m   atomic.Int64
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// MaxVertexID bounds the vertex ids data-driven construction accepts
// (FromEdges growth, ReadEdgeList parsing): one corrupt id in an edge
// list must produce an error, not a universe-sized allocation. Callers
// that really want a larger pre-sized universe ask for it explicitly
// with New or Grow.
const MaxVertexID = 1<<28 - 1

// FromEdges builds a graph with at least n vertices from an edge list,
// silently dropping self-loops and duplicate edges (paper §6.2: "all of the
// self-loops and repeated edges are removed"). Endpoints beyond n grow the
// vertex universe to cover them — edge lists over an open id space Just
// Work — while a negative endpoint, or one beyond MaxVertexID, is a
// malformed input and returns an error.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d,%d)", e.U, e.V)
		}
		if e.U > MaxVertexID || e.V > MaxVertexID {
			return nil, fmt.Errorf("graph: vertex id beyond MaxVertexID in edge (%d,%d)", e.U, e.V)
		}
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	g := New(n)
	uniq := normalizeEdges(edges)
	for _, e := range uniq {
		g.adj[e.U] = append(g.adj[e.U], e.V)
		g.adj[e.V] = append(g.adj[e.V], e.U)
	}
	g.m.Store(int64(len(uniq)))
	return g, nil
}

// MustFromEdges is FromEdges for edge lists known to be well-formed
// (generators, literals in tests); it panics on a negative endpoint.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// normalizeEdges returns the canonical, deduplicated, self-loop-free edge
// set, sorted lexicographically.
func normalizeEdges(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		out = append(out, e.Norm())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	w := 0
	for i, e := range out {
		if i > 0 && e == out[i-1] {
			continue
		}
		out[w] = e
		w++
	}
	return out[:w]
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int64 { return g.m.Load() }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int { return len(g.adj[v]) }

// Adj returns the adjacency slice of v. The slice is owned by the graph;
// callers must not modify it and must hold v's lock in parallel phases.
func (g *Graph) Adj(v int32) []int32 { return g.adj[v] }

// HasEdge reports whether the edge (u, v) is present. O(min(deg u, deg v)).
func (g *Graph) HasEdge(u, v int32) bool {
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u, v). It returns false without
// modifying the graph when the edge is a self-loop or already present.
func (g *Graph) AddEdge(u, v int32) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m.Add(1)
	return true
}

// RemoveEdge deletes the undirected edge (u, v) with swap-removal from both
// adjacency arrays. It returns false when the edge is absent. O(deg u +
// deg v), matching the array storage the paper evaluates.
func (g *Graph) RemoveEdge(u, v int32) bool {
	if !removeFrom(&g.adj[u], v) {
		return false
	}
	if !removeFrom(&g.adj[v], u) {
		panic(fmt.Sprintf("graph: asymmetric adjacency for edge (%d,%d)", u, v))
	}
	g.m.Add(-1)
	return true
}

func removeFrom(adj *[]int32, x int32) bool {
	a := *adj
	for i, w := range a {
		if w == x {
			a[i] = a[len(a)-1]
			*adj = a[:len(a)-1]
			return true
		}
	}
	return false
}

// AddVertex appends an isolated vertex and returns its id.
func (g *Graph) AddVertex() int32 {
	g.adj = append(g.adj, nil)
	return int32(len(g.adj) - 1)
}

// AddVertices appends k isolated vertices and returns the id of the first
// (the current N when k <= 0). Amortized O(1) per vertex: the adjacency
// table grows geometrically like any append.
func (g *Graph) AddVertices(k int) int32 {
	first := int32(len(g.adj))
	if k > 0 {
		g.adj = append(g.adj, make([][]int32, k)...)
	}
	return first
}

// Grow ensures the graph has at least n vertices, appending isolated ones.
// It never shrinks. Amortized O(1) per added vertex.
func (g *Graph) Grow(n int) {
	if n > len(g.adj) {
		g.adj = append(g.adj, make([][]int32, n-len(g.adj))...)
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	c.m.Store(g.m.Load())
	for v, a := range g.adj {
		if len(a) > 0 {
			c.adj[v] = append([]int32(nil), a...)
		}
	}
	return c
}

// Edges returns every edge once, in canonical (U <= V) form.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := int32(0); u < int32(len(g.adj)); u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// AvgDegree returns 2m/n, the average degree reported in Table 2.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(len(g.adj))
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// CheckConsistent verifies the symmetric-adjacency and simple-graph
// invariants; for tests.
func (g *Graph) CheckConsistent() error {
	var m int64
	for u := int32(0); u < int32(len(g.adj)); u++ {
		seen := make(map[int32]bool, len(g.adj[u]))
		for _, v := range g.adj[u] {
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v < 0 || int(v) >= len(g.adj) {
				return fmt.Errorf("graph: out-of-range neighbor %d of %d", v, u)
			}
			if seen[v] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			seen[v] = true
			found := false
			for _, w := range g.adj[v] {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: missing reverse edge (%d,%d)", v, u)
			}
			if u < v {
				m++
			}
		}
	}
	if m != g.M() {
		return fmt.Errorf("graph: m = %d but %d edges present", g.M(), m)
	}
	return nil
}

// ReadEdgeList parses a whitespace-separated edge list. Lines starting with
// '#' or '%' are comments. Vertex ids may be sparse; the graph is sized to
// the largest id seen. Self-loops and duplicates are dropped.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var edges []Edge
	maxID := int32(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		var u, v int64
		n, err := fmt.Sscan(line, &u, &v)
		if err != nil || n != 2 {
			return nil, fmt.Errorf("graph: bad edge on line %d: %q", lineNo, line)
		}
		if u < 0 || v < 0 || u > MaxVertexID || v > MaxVertexID {
			return nil, fmt.Errorf("graph: vertex id out of range on line %d", lineNo)
		}
		e := Edge{int32(u), int32(v)}
		edges = append(edges, e)
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(int(maxID)+1, edges)
}

// WriteEdgeList writes the graph as "u v" lines in canonical order.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		bw.WriteString(strconv.Itoa(int(e.U)))
		bw.WriteByte(' ')
		bw.WriteString(strconv.Itoa(int(e.V)))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
