package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// liveHeap returns the bytes of live heap objects after two full
// collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestGraphFootprint pins what a graph costs: a record per vertex and
// 4 bytes per adjacency entry, for FromEdges's graph and for its Clone,
// with no per-vertex header and no append slack. Not parallel: it
// measures the live heap.
func TestGraphFootprint(t *testing.T) {
	const n = 1 << 17
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 7*n) // average degree ≈ 14
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	h0 := liveHeap()
	g := MustFromEdges(n, edges)
	h1 := liveHeap()
	c := g.Clone()
	h2 := liveHeap()
	entries := 2 * g.M()
	for _, x := range []struct {
		name  string
		bytes int64
	}{{"FromEdges", h1 - h0}, {"Clone", h2 - h1}} {
		t.Logf("%s: %d B for %d vertices and %d entries: %.2f B/vertex + 4 B/entry, or %d B/vertex + %.2f B/entry",
			x.name, x.bytes, n, entries,
			float64(x.bytes-4*entries)/n, RecordBytes, float64(x.bytes-int64(RecordBytes)*n)/float64(entries))
		if budget := 12.5*n + 4.1*float64(entries); float64(x.bytes) > budget {
			t.Errorf("%s: %d B, want <= %.0f (12.5 B/vertex + 4.1 B/entry)", x.name, x.bytes, budget)
		}
	}
	runtime.KeepAlive(edges)
	runtime.KeepAlive(g)
	runtime.KeepAlive(c)
}

// TestConcurrentAddEdgeWithinReservation is the growth protocol: once
// Reserve has made room for a batch, goroutines add it concurrently under
// per-vertex locks (the way pcore's workers do) without moving the arena.
// The batch shares hub endpoints, repeats edges and names present ones.
func TestConcurrentAddEdgeWithinReservation(t *testing.T) {
	const n = 400
	for _, workers := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(workers)))
		var ring []Edge
		for v := int32(0); v < n; v++ {
			ring = append(ring, Edge{v, (v + 1) % n})
		}
		g := MustFromEdges(n, ring) // exact fit: every new edge needs room
		var batch []Edge
		for i := 0; i < 3000; i++ {
			u, v := int32(rng.Intn(4)), int32(rng.Intn(n)) // hubs 0..3
			if i%3 == 0 {
				u = int32(rng.Intn(n))
			}
			batch = append(batch, Edge{u, v})
		}
		batch = append(batch, ring[:50]...)
		batch = append(batch, batch[:100]...)

		g.Reserve(batch)
		base, used := unsafe.SliceData(g.arena), len(g.arena)
		locks := make([]sync.Mutex, n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(batch); i += workers {
					u, v := batch[i].U, batch[i].V
					if u == v {
						continue
					}
					lo, hi := min(u, v), max(u, v)
					locks[lo].Lock()
					locks[hi].Lock()
					g.AddEdge(u, v)
					locks[hi].Unlock()
					locks[lo].Unlock()
				}
			}(w)
		}
		wg.Wait()

		if unsafe.SliceData(g.arena) != base || len(g.arena) != used {
			t.Fatalf("w=%d: the arena moved inside a reservation", workers)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		want := map[Edge]bool{}
		for _, e := range append(ring, batch...) {
			if e.U != e.V {
				want[e.Norm()] = true
			}
		}
		if g.M() != int64(len(want)) {
			t.Fatalf("w=%d: m = %d, want %d", workers, g.M(), len(want))
		}
		for e := range want {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("w=%d: edge %v missing", workers, e)
			}
		}
	}
}

// FuzzGraphOps runs a byte stream of operations against an edge-set
// model: every op is three bytes (op, a, b), and after each one the arena
// invariants must hold and Edges() must be the model's edge set.
//
//	0 AddEdge(a, b)   1 RemoveEdge(a, b)   2 Grow by a%32 vertices, below 256 + 32
//	3 Reserve the next b%16 (a, b) pairs, then add them: the arena must not move
//	4 Clone           5 WriteBinary → ReadBinary
//	6 a star: AddEdge(a, a+i) for i = 1..b, one at a time
//
// Vertex bytes are taken modulo the current N.
func FuzzGraphOps(f *testing.F) {
	grow := []byte{2, 31, 0, 2, 31, 0, 2, 31, 0, 2, 31, 0}
	// A hub gaining 99 edges one at a time relocates its block at every
	// doubling, leaving dead space behind it; then a removal, a clone, a
	// round trip and an add to the exact-fit copy.
	f.Add(append(grow[:9:9], 6, 0, 99, 1, 0, 5, 4, 0, 0, 5, 0, 0, 0, 0, 5))
	// Stars around many centres, with reserved batches between: the
	// arena's tail fills and it is reallocated several times over.
	growth := append([]byte(nil), grow...)
	for c := byte(1); c < 40; c += 3 {
		growth = append(growth, 6, c, 2*c+5)
		if c%9 == 1 {
			growth = append(growth, 3, 0, 6, c, 100, c+1, 101, c+2, 102, c, 103, c, 100, 7, 7)
		}
	}
	f.Add(append(growth, 5, 0, 0, 6, 0, 60))
	f.Add([]byte{0, 1, 2, 0, 2, 3, 1, 2, 1, 4, 0, 0, 3, 0, 3, 1, 2, 2, 3, 3, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := New(8)
		model := map[Edge]bool{}
		add := func(u, v int32) {
			e := Edge{u, v}.Norm()
			want := u != v && !model[e]
			if got := g.AddEdge(u, v); got != want {
				t.Fatalf("AddEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
			if want {
				model[e] = true
			}
		}
		vertex := func(x int) int32 { return int32(x % g.N()) }
		for len(data) >= 3 {
			op, a, b := data[0]%7, data[1], data[2]
			data = data[3:]
			switch op {
			case 0:
				add(vertex(int(a)), vertex(int(b)))
			case 1:
				u, v := vertex(int(a)), vertex(int(b))
				e := Edge{u, v}.Norm()
				if got := g.RemoveEdge(u, v); got != model[e] {
					t.Fatalf("RemoveEdge(%d,%d) = %v, want %v", u, v, got, model[e])
				}
				delete(model, e)
			case 2:
				if g.N() < 256 {
					g.Grow(g.N() + int(a)%32)
				}
			case 3:
				var batch []Edge
				for k := int(b) % 16; k > 0 && len(data) >= 2; k-- {
					batch = append(batch, Edge{vertex(int(data[0])), vertex(int(data[1]))})
					data = data[2:]
				}
				g.Reserve(batch)
				base, used := unsafe.SliceData(g.arena), len(g.arena)
				for _, e := range batch {
					add(e.U, e.V)
				}
				if unsafe.SliceData(g.arena) != base || len(g.arena) != used {
					t.Fatalf("adding the reserved batch %v moved the arena", batch)
				}
			case 4:
				g = g.Clone()
			case 5:
				var buf bytes.Buffer
				if err := g.WriteBinary(&buf); err != nil {
					t.Fatal(err)
				}
				var err error
				if g, err = ReadBinary(&buf); err != nil {
					t.Fatal(err)
				}
			case 6:
				for i := 1; i <= int(b); i++ {
					add(vertex(int(a)), vertex(int(a)+i))
				}
			}
			if err := g.CheckConsistent(); err != nil {
				t.Fatalf("after op %d: %v", op, err)
			}
			// Edges() lists each edge once and the graph is simple, so
			// equal sizes and inclusion make the sets equal.
			got := g.Edges()
			if len(got) != len(model) {
				t.Fatalf("after op %d: %d edges, model %d", op, len(got), len(model))
			}
			for _, e := range got {
				if !model[e] {
					t.Fatalf("after op %d: edge %v not in the model", op, e)
				}
			}
		}
	})
}
