package kcore

import (
	"slices"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
)

// allAlgorithms is the registration table's contents; every cross-engine
// test ranges over it so a newly registered engine is covered for free.
// The scripted per-engine agree-with-Decompose assertions that used to
// live here are subsumed by TestEngineConformance.
var allAlgorithms = Algorithms()

func TestSingleEdgeHelpers(t *testing.T) {
	m := New(graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}))
	res := m.InsertEdge(0, 2)
	if !(res.Applied == 1 && m.CoreOf(0) == 2) {
		t.Fatalf("InsertEdge: %+v core=%d", res, m.CoreOf(0))
	}
	res = m.RemoveEdge(0, 2)
	if !(res.Applied == 1 && m.CoreOf(0) == 1) {
		t.Fatalf("RemoveEdge: %+v core=%d", res, m.CoreOf(0))
	}
	if m.InsertEdge(1, 1).Applied != 0 {
		t.Fatal("self-loop applied")
	}
	if m.RemoveEdge(0, 2).Applied != 0 {
		t.Fatal("absent removal applied")
	}
}

func TestHistogramAndMaxCore(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	m := New(g)
	if m.MaxCore() != 2 {
		t.Fatalf("MaxCore = %d", m.MaxCore())
	}
	h := m.CoreHistogram()
	if h[2] != 3 || h[0] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestVPlusSizesReported(t *testing.T) {
	base := gen.ErdosRenyi(100, 300, 7)
	ins := gen.SampleNonEdges(base, 50, 8)
	for _, alg := range []Algorithm{ParallelOrder, SequentialOrder} {
		m := New(base.Clone(), WithAlgorithm(alg), WithWorkers(2))
		res := m.InsertEdges(ins)
		if len(res.VPlusSizes) != res.Applied {
			t.Fatalf("%v: %d sizes for %d applied", alg, len(res.VPlusSizes), res.Applied)
		}
	}
	m := New(base.Clone(), WithAlgorithm(Traversal))
	if res := m.InsertEdges(ins); res.VPlusSizes != nil {
		t.Fatal("Traversal must not report V+ sizes")
	}
}

func TestOptionsDefaults(t *testing.T) {
	m := New(graph.New(3))
	if m.Algorithm() != ParallelOrder || m.Workers() != 1 {
		t.Fatalf("defaults: %v %d", m.Algorithm(), m.Workers())
	}
	m = New(graph.New(3), WithWorkers(-5))
	if m.Workers() != 1 {
		t.Fatalf("negative workers must clamp to 1, got %d", m.Workers())
	}
	if got := ParallelOrder.String(); got != "ParallelOrder" {
		t.Fatalf("String: %q", got)
	}
	if got := Algorithm(42).String(); got != "Algorithm(42)" {
		t.Fatalf("String: %q", got)
	}
}

// Concurrent callers: batches must serialize, final state must be coherent.
func TestConcurrentBatchesSerialize(t *testing.T) {
	base := gen.ErdosRenyi(150, 450, 9)
	m := New(base.Clone(), WithWorkers(4))
	ins := gen.SampleNonEdges(base, 120, 10)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.InsertEdges(ins[i*30 : (i+1)*30])
		}(i)
	}
	wg.Wait()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeStandalone(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	cores := Decompose(g)
	want := []int32{2, 2, 2, 1}
	for v := range want {
		if cores[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, cores[v], want[v])
		}
	}
}

// TestReaderPinsUntilUnpin: a Reader's snapshot stays the one it pinned,
// values included, across batches that recycle pages, until Unpin; the
// next Pin takes the latest snapshot. Scalar reads and a pinning Reader
// leave the publisher free to recycle: pages come back from its free list.
func TestReaderPinsUntilUnpin(t *testing.T) {
	m := New(graph.MustFromEdges(2048, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}))
	defer m.Close()
	r := m.NewReader()
	defer r.Unpin()
	s := r.Pin()
	for i := 0; i < 8; i++ {
		m.InsertEdge(0, 2) // a triangle: vertices 0-2 go to core 2
		m.RemoveEdge(0, 2) // and back to core 1
	}
	m.InsertEdge(0, 2)
	if p := r.Pin(); p.Epoch() != s.Epoch() || p.CoreOf(0) != 1 || p.Histogram()[1] != 3 {
		t.Fatalf("pinned snapshot moved: epoch %d→%d, core(0) %d, hist %v", s.Epoch(), p.Epoch(), p.CoreOf(0), p.Histogram())
	}
	r.Unpin()
	if p := r.Pin(); p.Epoch() != m.Epoch() || p.CoreOf(0) != 2 {
		t.Fatalf("Pin after Unpin: epoch %d (latest %d), core(0) %d, want the latest and 2", p.Epoch(), m.Epoch(), p.CoreOf(0))
	}
	if st := m.ServingStats(); st.RecycledPages == 0 {
		t.Fatalf("no page recycled in %d dirty pages", st.DirtyPages)
	}
}

// TestHistogramRange pins the range-restricted aggregate CORE.HIST lo hi
// serves against brute force: for [lo, hi) windows (clamped, inverted,
// and beyond-N included), HistogramRangeInto's bins — into one reused
// buffer, as a server connection calls it — must match a direct scan of
// the core array.
func TestHistogramRange(t *testing.T) {
	m := New(gen.ErdosRenyi(3000, 12000, 7))
	defer m.Close()
	s := m.Snapshot()
	cores := s.CoresInto(nil)
	n := int32(s.N())

	windows := [][2]int32{
		{0, n}, {0, 0}, {n, n}, {100, 100}, {0, 1}, {n - 1, n},
		{500, 1500}, {1023, 1025}, {1024, 2048}, // page boundaries
		{2900, n + 500}, {-5, 40}, {2000, 1000}, // clamped / inverted
	}
	var got []int64
	for _, w := range windows {
		lo, hi := w[0], w[1]
		clo, chi := max(lo, 0), min(hi, n)
		want := []int64{0}
		for v := clo; v < chi; v++ {
			c := cores[v]
			for int(c) >= len(want) {
				want = append(want, 0)
			}
			want[c]++
		}
		got = s.HistogramRangeInto(got, lo, hi)
		if !slices.Equal(got, want) {
			t.Fatalf("HistogramRangeInto(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}

	// Whole-graph consistency: the [0, N) range histogram is the Histogram.
	if ranged := s.HistogramRangeInto(nil, 0, n); !slices.Equal(ranged, s.Histogram()) {
		t.Fatalf("range [0,N) = %v, Histogram = %v", ranged, s.Histogram())
	}
}
