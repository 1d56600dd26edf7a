// Package graph provides the dynamic undirected graph substrate for core
// maintenance: adjacency arrays with O(1) insertion and O(deg) removal
// (the paper stores edges in arrays, §6.3), plus edge-list I/O and batch
// construction with self-loop/duplicate stripping (§6.2).
//
// The adjacency arrays live in one arena: a 12-byte {off, len, cap} record
// per vertex over one []int32, with no per-vertex pointer. A vertex whose
// block is full is relocated to the arena's tail with doubled capacity, and
// the arena itself is reallocated (dropping the dead space relocations left)
// when its tail is full.
//
// Concurrency contract: Graph performs no internal synchronization. The
// maintenance algorithms read or mutate a vertex's adjacency only while
// holding that vertex's lock, and they call AddEdge concurrently only inside
// a Reserve: AddEdge of a reserved edge writes into its endpoints' blocks
// and never moves the arena, while any other AddEdge may move it.
// Race-detector runs of the parallel algorithms validate the discipline.
package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"unsafe"
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
	// recs[v] locates v's block: its neighbours are
	// arena[off : off+len], inside a block of cap entries.
	recs []rec
	// arena holds every block. Its length is the used prefix — live blocks
	// and the dead space of relocated ones — and its capacity the room
	// left at the tail for relocations.
	arena []int32
	// moves is Reserve's scratch, kept between calls.
	moves []move
	m     atomic.Int64
}

type rec struct{ off, len, cap uint32 }

// RecordBytes is the graph's fixed cost per vertex: one {off, len, cap}
// record. The rest is 4 bytes per adjacency entry plus block slack.
const RecordBytes = unsafe.Sizeof(rec{})

// maxEntries bounds the arena: block offsets are uint32.
const maxEntries = math.MaxUint32

// minBlock is the capacity a vertex's first relocation gives it, the
// smallest block append would allocate for an []int32.
const minBlock = 2

// reserveKeep is the largest scratch, in moves, Reserve keeps for the
// next call.
const reserveKeep = 1 << 10

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{recs: make([]rec, n)}
}

// MaxVertexID bounds the vertex ids data-driven construction accepts
// (fromEdges growth, ReadEdgeList parsing): one corrupt id in an edge
// list must produce an error, not a universe-sized allocation. Callers
// that really want a larger pre-sized universe ask for it explicitly
// with New or Grow.
const MaxVertexID = 1<<28 - 1

// fromEdges builds a graph with at least n vertices from an edge list,
// silently dropping self-loops and duplicate edges (paper §6.2: "all of the
// self-loops and repeated edges are removed"). Endpoints beyond n grow the
// vertex universe to cover them — edge lists over an open id space Just
// Work — while a negative endpoint, or one beyond MaxVertexID, is a
// malformed input and returns an error. The arena is built exact-fit in
// one allocation.
func fromEdges(n int, edges []Edge) (*Graph, error) {
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
	uniq := normalizeEdges(edges)
	if 2*uint64(len(uniq)) > maxEntries {
		return nil, fmt.Errorf("graph: %d edges overflow the adjacency arena", len(uniq))
	}
	g := New(n)
	for _, e := range uniq {
		g.recs[e.U].cap++
		g.recs[e.V].cap++
	}
	g.layout()
	for _, e := range uniq {
		g.push(e.U, e.V)
		g.push(e.V, e.U)
	}
	g.m.Store(int64(len(uniq)))
	return g, nil
}

// MustFromEdges is fromEdges for edge lists known to be well-formed
// (generators, literals in tests); it panics on a negative endpoint.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := fromEdges(n, edges)
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

// layout places every block back to back in vertex order at its record's
// cap and allocates an arena that holds them exactly. The caller has set
// the caps (their sum fits in maxEntries) and fills the blocks.
func (g *Graph) layout() {
	off := uint32(0)
	for i := range g.recs {
		g.recs[i].off = off
		off += g.recs[i].cap
	}
	g.arena = make([]int32, off)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.recs) }

// M returns the number of edges.
func (g *Graph) M() int64 { return g.m.Load() }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int { return int(g.recs[v].len) }

// Adj returns the neighbours of v as a view into the graph's arena, valid
// until the next AddEdge, Reserve or Grow on the graph, any of which may
// move the arena; RemoveEdge rewrites the view in place. Callers must not
// modify it and must hold v's lock in parallel phases. Its capacity is its
// length, so appending to it copies.
func (g *Graph) Adj(v int32) []int32 {
	r := g.recs[v]
	return g.arena[r.off : r.off+r.len : r.off+r.len]
}

// HasEdge reports whether the edge (u, v) is present. O(min(deg u, deg v)).
func (g *Graph) HasEdge(u, v int32) bool {
	if g.recs[u].len > g.recs[v].len {
		u, v = v, u
	}
	return slices.Contains(g.Adj(u), v)
}

// AddEdge inserts the undirected edge (u, v). It returns false without
// modifying the graph when the edge is a self-loop or already present.
// A full block is relocated to the arena's tail with doubled capacity,
// and a full arena is reallocated; neither happens to an edge Reserve has
// made room for.
func (g *Graph) AddEdge(u, v int32) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.push(u, v)
	g.push(v, u)
	g.m.Add(1)
	return true
}

// push appends w to v's block, relocating the block first if it is full.
func (g *Graph) push(v, w int32) {
	r := &g.recs[v]
	if r.len == r.cap {
		g.relocate(v, grownCap(*r, 1))
	}
	g.arena[r.off+r.len] = w
	r.len++
}

// grownCap is the capacity a block moves to when it must take need more
// entries: doubled, as append would, and at least len+need.
func grownCap(r rec, need uint64) uint64 {
	return max(2*uint64(r.cap), uint64(r.len)+need, minBlock)
}

// relocate moves v's block to the arena's tail with capacity c. The old
// block becomes dead space.
func (g *Graph) relocate(v int32, c uint64) {
	g.room(c)
	r := &g.recs[v]
	off := len(g.arena)
	g.arena = g.arena[:off+int(c)]
	copy(g.arena[off:], g.arena[r.off:r.off+r.len])
	r.off, r.cap = uint32(off), uint32(c)
}

// room makes the arena's tail hold at least need more entries. When it
// does not, the arena is reallocated at 1.25 × (live capacity + need) and
// only the live blocks are copied, packed in vertex order at their
// capacities, so dead space never outlives an arena growth. It panics
// past maxEntries.
func (g *Graph) room(need uint64) {
	if uint64(cap(g.arena)-len(g.arena)) >= need {
		return
	}
	var live uint64
	for _, r := range g.recs {
		live += uint64(r.cap)
	}
	want := live + need
	if want > maxEntries {
		panic(fmt.Sprintf("graph: adjacency arena past %d entries", uint64(maxEntries)))
	}
	arena := make([]int32, live, min(want+want/4, maxEntries))
	// Blocks that lie back to back in the old arena stay so in the new
	// one, so each such run moves with one copy: a packed arena in one.
	var off, src, dst, n uint32
	for i := range g.recs {
		r := &g.recs[i]
		if r.off != src+n {
			copy(arena[dst:dst+n], g.arena[src:src+n])
			src, dst, n = r.off, off, 0
		}
		n += r.cap
		r.off = off
		off += r.cap
	}
	copy(arena[dst:dst+n], g.arena[src:src+n])
	g.arena = arena
}

// Reserve makes room for edges: after it returns, adding them — and no
// other edge — relocates no block and never moves the arena, so workers
// may add them concurrently, each under its endpoints' locks. Every
// endpoint is counted, present edges and repeats included (a reservation
// is an upper bound); self-loops and endpoints outside the graph are
// skipped. It must run at quiescence.
//
// The demand is counted in the records themselves: each endpoint bumps
// its len, a block whose len now exceeds its cap is short, and the bumps
// are taken back before anything moves. The only scratch is the list of
// short blocks, sized by the batch, never by N.
func (g *Graph) Reserve(edges []Edge) {
	if uint64(len(edges)) > maxEntries/2 { // keeps the counts below in uint32
		panic(fmt.Sprintf("graph: a batch of %d edges overflows the adjacency arena", len(edges)))
	}
	g.bump(edges, 1)
	moves := g.moves[:0]
	for _, e := range edges {
		if !g.counts(e) {
			continue
		}
		for _, v := range [2]int32{e.U, e.V} {
			// len is v's degree plus its demand: below 2^31 + len(edges).
			if r := &g.recs[v]; r.len > r.cap {
				moves = append(moves, move{v: v, cap: r.cap, to: grownCap(*r, 0)})
				r.cap = r.len // counted: v's later endpoints must not count it again
			}
		}
	}
	g.bump(edges, ^uint32(0))
	var need uint64
	for _, mv := range moves {
		g.recs[mv.v].cap = mv.cap
		need += mv.to
	}
	g.room(need)
	for _, mv := range moves {
		g.relocate(mv.v, mv.to)
	}
	if cap(moves) > reserveKeep {
		moves = nil
	}
	g.moves = moves
}

// move is a block Reserve relocates: its vertex, its capacity and the
// capacity it moves to.
type move struct {
	v   int32
	cap uint32
	to  uint64
}

// bump adds d (mod 2^32) to the len of both endpoints of every edge
// Reserve counts.
func (g *Graph) bump(edges []Edge, d uint32) {
	for _, e := range edges {
		if g.counts(e) {
			g.recs[e.U].len += d
			g.recs[e.V].len += d
		}
	}
}

// counts reports whether Reserve counts e: not a self-loop, both
// endpoints in the graph.
func (g *Graph) counts(e Edge) bool { return e.U != e.V && g.has(e.U) && g.has(e.V) }

func (g *Graph) has(v int32) bool { return v >= 0 && int(v) < len(g.recs) }

// RemoveEdge deletes the undirected edge (u, v) with swap-removal from both
// adjacency arrays. It returns false when the edge is absent. O(deg u +
// deg v), matching the array storage the paper evaluates. Blocks never
// move on removal.
func (g *Graph) RemoveEdge(u, v int32) bool {
	if !g.pull(u, v) {
		return false
	}
	if !g.pull(v, u) {
		panic(fmt.Sprintf("graph: asymmetric adjacency for edge (%d,%d)", u, v))
	}
	g.m.Add(-1)
	return true
}

// pull swap-removes w from v's block.
func (g *Graph) pull(v, w int32) bool {
	r := &g.recs[v]
	a := g.arena[r.off : r.off+r.len]
	for i, x := range a {
		if x == w {
			r.len--
			a[i] = a[r.len]
			return true
		}
	}
	return false
}

// AddVertices appends k isolated vertices and returns the id of the first
// (the current N when k <= 0). Amortized O(1) per vertex: the record table
// grows geometrically like any append.
func (g *Graph) AddVertices(k int) int32 {
	first := int32(len(g.recs))
	if k > 0 {
		g.recs = append(g.recs, make([]rec, k)...)
	}
	return first
}

// Grow ensures the graph has at least n vertices, appending isolated ones.
// It never shrinks. Amortized O(1) per added vertex.
func (g *Graph) Grow(n int) {
	if n > len(g.recs) {
		g.AddVertices(n - len(g.recs))
	}
}

// Clone returns a deep copy of the graph, its arena packed exact-fit.
func (g *Graph) Clone() *Graph {
	c := New(len(g.recs))
	c.m.Store(g.m.Load())
	for v, r := range g.recs {
		c.recs[v].cap = r.len
	}
	c.layout()
	for v, r := range g.recs {
		copy(c.arena[c.recs[v].off:], g.arena[r.off:r.off+r.len])
		c.recs[v].len = r.len
	}
	return c
}

// Edges returns every edge once, in canonical (U <= V) form.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := int32(0); u < int32(len(g.recs)); u++ {
		for _, v := range g.Adj(u) {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// AvgDegree returns 2m/n, the average degree reported in Table 2.
func (g *Graph) AvgDegree() float64 {
	if len(g.recs) == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(len(g.recs))
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, r := range g.recs {
		if int(r.len) > max {
			max = int(r.len)
		}
	}
	return max
}

// CheckConsistent verifies the arena invariants (every block inside the
// arena, len ≤ cap, live blocks pairwise disjoint, Σcap ≤ len(arena)) and
// the symmetric-adjacency and simple-graph invariants; for tests.
func (g *Graph) CheckConsistent() error {
	var live uint64
	var blocks []int32
	for v, r := range g.recs {
		if r.len > r.cap {
			return fmt.Errorf("graph: block of %d has len %d > cap %d", v, r.len, r.cap)
		}
		if uint64(r.off)+uint64(r.cap) > uint64(len(g.arena)) {
			return fmt.Errorf("graph: block of %d [%d, +%d) outside the arena of %d", v, r.off, r.cap, len(g.arena))
		}
		live += uint64(r.cap)
		if r.cap > 0 {
			blocks = append(blocks, int32(v))
		}
	}
	if live > uint64(len(g.arena)) {
		return fmt.Errorf("graph: blocks hold %d entries, arena %d", live, len(g.arena))
	}
	slices.SortFunc(blocks, func(a, b int32) int { return cmp.Compare(g.recs[a].off, g.recs[b].off) })
	for i := 1; i < len(blocks); i++ {
		p, q := g.recs[blocks[i-1]], g.recs[blocks[i]]
		if p.off+p.cap > q.off {
			return fmt.Errorf("graph: blocks of %d and %d overlap", blocks[i-1], blocks[i])
		}
	}

	// stamp[v] == u+1: v was already seen in u's adjacency.
	stamp := make([]int32, len(g.recs))
	var m int64
	for u := int32(0); u < int32(len(g.recs)); u++ {
		for _, v := range g.Adj(u) {
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if !g.has(v) {
				return fmt.Errorf("graph: out-of-range neighbor %d of %d", v, u)
			}
			if stamp[v] == u+1 {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			stamp[v] = u + 1
			if !slices.Contains(g.Adj(v), u) {
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
	return fromEdges(int(maxID)+1, edges)
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
