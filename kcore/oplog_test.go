package kcore

import (
	"math/rand"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// recordingLog captures the op stream like the durability subsystem
// does, but in memory: replaying it onto an empty graph must rebuild the
// maintainer's exact graph.
type recordingLog struct {
	mu  sync.Mutex
	ops []loggedOp
}

type loggedOp struct {
	grow    int // >0: grow record
	inserts []graph.Edge
	removes []graph.Edge
}

func (l *recordingLog) AppendBatch(removes, inserts []graph.Edge) {
	l.mu.Lock()
	l.ops = append(l.ops, loggedOp{
		removes: append([]graph.Edge(nil), removes...),
		inserts: append([]graph.Edge(nil), inserts...),
	})
	l.mu.Unlock()
}

func (l *recordingLog) AppendGrow(n int) {
	l.mu.Lock()
	l.ops = append(l.ops, loggedOp{grow: n})
	l.mu.Unlock()
}

// replay rebuilds a graph from the recorded stream, the same way
// persist.Recover does: grow-to-fit inserts, drop out-of-range removes.
func (l *recordingLog) replay(start *graph.Graph) *graph.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := start.Clone()
	for _, op := range l.ops {
		if op.grow > 0 {
			if op.grow > g.N() {
				g.Grow(op.grow)
			}
			continue
		}
		for _, e := range op.removes {
			if int(e.U) < g.N() && int(e.V) < g.N() {
				g.RemoveEdge(e.U, e.V)
			}
		}
		for _, e := range op.inserts {
			if hi := max(e.U, e.V); int(hi) >= g.N() {
				g.Grow(int(hi) + 1)
			}
			g.AddEdge(e.U, e.V)
		}
	}
	return g
}

func assertGraphEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("replayed graph n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	wc, _ := bz.Decompose(want)
	gc, _ := bz.Decompose(got)
	for v := range wc {
		if gc[v] != wc[v] {
			t.Fatalf("replayed core[%d] = %d, want %d", v, gc[v], wc[v])
		}
	}
	for v := int32(0); int(v) < want.N(); v++ {
		for _, w := range want.Adj(v) {
			if !got.HasEdge(v, w) {
				t.Fatalf("replayed graph missing edge (%d,%d)", v, w)
			}
		}
	}
}

// TestOpLogReplayRebuildsGraph drives randomized pipelined updates —
// inserts, removes, duplicate inserts, explicit growth, inserts beyond
// the current universe — and asserts after every flush that replaying
// the logged op stream onto a clone of the base graph reproduces the
// maintainer's graph exactly. This is the invariant durability rests on:
// checkpoint + logged tail = live state.
func TestOpLogReplayRebuildsGraph(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	rng := rand.New(rand.NewSource(7))
	const n = 300
	base := gen.ErdosRenyi(n, 2*n, 11)
	logd := &recordingLog{}
	m := New(base.Clone(), WithOpLog(logd), WithWorkers(2))
	defer m.Close()

	for round := 0; round < rounds; round++ {
		switch rng.Intn(5) {
		case 0: // removals of (mostly) existing edges
			var edges []graph.Edge
			for i := 0; i < 5; i++ {
				u := int32(rng.Intn(m.N()))
				if a := m.Graph().Adj(u); len(a) > 0 {
					edges = append(edges, graph.Edge{U: u, V: a[rng.Intn(len(a))]})
				}
			}
			m.RemoveEdges(edges)
		case 1: // explicit growth
			m.AddVertices(1 + rng.Intn(3))
		case 2: // inserts beyond the universe (implicit growth)
			hi := int32(m.N() + rng.Intn(5))
			m.InsertEdge(int32(rng.Intn(m.N())), hi)
		case 3: // async burst, coalesced
			var pend []*Pending
			for i := 0; i < 4; i++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u != v {
					pend = append(pend, insertAsync(m, []graph.Edge{{U: u, V: v}}))
				}
			}
			for _, p := range pend {
				p.Wait()
			}
		default: // plain inserts, duplicates included
			var edges []graph.Edge
			for i := 0; i < 6; i++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u != v {
					edges = append(edges, graph.Edge{U: u, V: v})
				}
			}
			m.InsertEdges(edges)
		}
		m.Flush()
		assertGraphEqual(t, logd.replay(base), m.Graph())
	}
}

// TestOpLogAfterClose verifies the synchronous post-Close path
// logs ops too.
func TestOpLogAfterClose(t *testing.T) {
	logd := &recordingLog{}
	base := gen.ErdosRenyi(50, 100, 3)
	m := New(base.Clone(), WithOpLog(logd))
	m.InsertEdge(1, 2)
	m.Close()
	m.InsertEdge(3, 4) // post-Close path
	m.RemoveEdge(1, 2)
	assertGraphEqual(t, logd.replay(base), m.Graph())
}
