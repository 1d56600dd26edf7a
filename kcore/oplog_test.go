package kcore

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

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

func (l *recordingLog) Commit() {}

// replay rebuilds a graph from the recorded stream, the same way
// persist.Recover does: grow-to-fit inserts, drop out-of-range removes.
func (l *recordingLog) replay(start *graph.Graph) *graph.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := start.Clone()
	for _, op := range l.ops {
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

// TestOpLogAfterClose: the batch Close drains is logged like any other,
// and an update after Close panics without reaching the log.
func TestOpLogAfterClose(t *testing.T) {
	logd := &recordingLog{}
	base := gen.ErdosRenyi(50, 100, 3)
	m := New(base.Clone(), WithOpLog(logd))
	m.InsertEdge(1, 2)
	var pd Pending
	m.Submit(&pd, []graph.Edge{{U: 1, V: 2}}, []graph.Edge{{U: 3, V: 4}})
	m.Close()
	pd.Wait()
	func() {
		defer func() { recover() }()
		m.InsertEdge(5, 6)
	}()
	if len(logd.ops) != 2 {
		t.Fatalf("%d batches logged, want the 2 applied before Close", len(logd.ops))
	}
	assertGraphEqual(t, logd.replay(base), m.Graph())
}

// gatedLog is an OpLog whose Commit parks the applier until the test
// releases it. Each append reports the epoch it saw, and every call is
// recorded in order. Closing stop lets every call through, so a failed
// test does not leave the applier parked.
type gatedLog struct {
	m          *Maintainer   // set after New; read from the applier
	appended   chan uint64   // the epoch each append saw
	committing chan struct{} // one token per Commit, sent before it parks
	release    chan struct{} // one token lets one Commit return
	stop       chan struct{}
	mu         sync.Mutex
	calls      []string
}

func (l *gatedLog) call(kind string) {
	l.mu.Lock()
	l.calls = append(l.calls, kind)
	l.mu.Unlock()
}

func (l *gatedLog) AppendBatch(removes, inserts []graph.Edge) { l.appendAt(l.m.Epoch()) }

func (l *gatedLog) appendAt(epoch uint64) {
	l.call("append")
	select {
	case l.appended <- epoch:
	case <-l.stop:
	}
}

func (l *gatedLog) Commit() {
	l.call("commit")
	select {
	case l.committing <- struct{}{}:
	case <-l.stop:
		return
	}
	select {
	case <-l.release:
	case <-l.stop:
	}
}

// TestCommitGatesPublication pins the OpLog's commit contract: append
// before apply, commit before publish. The append sees epoch E; while
// Commit is parked the maintainer still reads E and the pre-batch cores
// and the batch's future has not completed; once Commit returns, the
// batch publishes at E+1 and the future completes. AddVertices commits
// its growth the same way, so appends and commits alternate strictly.
func TestCommitGatesPublication(t *testing.T) {
	lg := &gatedLog{
		appended:   make(chan uint64, 1),
		committing: make(chan struct{}),
		release:    make(chan struct{}),
		stop:       make(chan struct{}),
	}
	// Closing the path 0–1–2 into a triangle lifts all three to core 2.
	m := New(graph.MustFromEdges(8, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), WithOpLog(lg))
	lg.m = m
	t.Cleanup(m.Close)
	t.Cleanup(func() { close(lg.stop) }) // runs first

	// gate runs op on its own goroutine, checks the state while the
	// applier is parked in Commit, then releases it and checks the
	// publication.
	gate := func(name string, op func(), check func(published bool)) {
		t.Helper()
		e := m.Epoch()
		done := make(chan struct{})
		go func() { defer close(done); op() }()
		if got := <-lg.appended; got != e {
			t.Fatalf("%s: append saw epoch %d, want %d", name, got, e)
		}
		<-lg.committing
		select {
		case <-done:
			t.Fatalf("%s: completed while Commit was parked", name)
		case <-time.After(20 * time.Millisecond):
		}
		if got := m.Epoch(); got != e {
			t.Fatalf("%s: epoch %d while Commit was parked, want %d", name, got, e)
		}
		check(false)
		lg.release <- struct{}{}
		<-done
		if got := m.Epoch(); got != e+1 {
			t.Fatalf("%s: epoch %d after Commit, want %d", name, got, e+1)
		}
		check(true)
	}
	// flip checks the first three cores: pre while parked, post after.
	flip := func(pre, post []int32) func(bool) {
		return func(published bool) {
			t.Helper()
			want := pre
			if published {
				want = post
			}
			if got := m.Snapshot().CoresInto(nil)[:3]; !slices.Equal(got, want) {
				t.Fatalf("cores %v, want %v (published=%v)", got, want, published)
			}
		}
	}

	var pd Pending
	gate("insert", func() {
		m.Submit(&pd, nil, []graph.Edge{{U: 0, V: 2}})
		pd.Wait()
	}, flip([]int32{1, 1, 1}, []int32{2, 2, 2}))
	gate("grow", func() { m.AddVertices(4) }, func(published bool) {
		if want := map[bool]int{false: 8, true: 12}[published]; m.N() != want {
			t.Fatalf("N = %d, want %d (published=%v)", m.N(), want, published)
		}
	})
	gate("remove", func() {
		m.Submit(&pd, []graph.Edge{{U: 0, V: 2}}, nil)
		pd.Wait()
	}, flip([]int32{2, 2, 2}, []int32{1, 1, 1}))

	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.calls) != 6 {
		t.Fatalf("calls %v, want 3 append/commit pairs", lg.calls)
	}
	for i, c := range lg.calls {
		if want := [2]string{"append", "commit"}[i%2]; c != want {
			t.Fatalf("call %d is %s, want %s: %v", i, c, want, lg.calls)
		}
	}
}
