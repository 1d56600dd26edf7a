package gen

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/graph"
)

func TestErdosRenyiShape(t *testing.T) {
	g := ErdosRenyi(1000, 4000, 1)
	if g.N() != 1000 || g.M() != 4000 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(200, 800, 42)
	b := ErdosRenyi(200, 800, 42)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("different sizes for same seed")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("different edges for same seed")
		}
	}
	c := ErdosRenyi(200, 800, 43)
	same := true
	ec := c.Edges()
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestGeneratorsDeterministic builds every seeded generator's output twice
// from one seed: a generator that ranges over a map, or reads any other
// source of order than its seed, gives two different outputs.
func TestGeneratorsDeterministic(t *testing.T) {
	base := ErdosRenyi(300, 1200, 3)
	for _, tc := range []struct {
		name  string
		build func(seed int64) any
	}{
		{"ErdosRenyi", func(s int64) any { return ErdosRenyi(500, 2000, s).Edges() }},
		{"BarabasiAlbert", func(s int64) any { return BarabasiAlbert(2000, 4, s).Edges() }},
		{"RMAT", func(s int64) any { return RMAT(10, 3000, s).Edges() }},
		{"WattsStrogatz", func(s int64) any { return WattsStrogatz(500, 3, 0.2, s).Edges() }},
		{"PowerLawCluster", func(s int64) any { return PowerLawCluster(2000, 8, 2.4, s).Edges() }},
		{"TemporalStream", func(s int64) any { return TemporalStream(base, s) }},
		{"VertexArrivals", func(s int64) any { return VertexArrivals(100, 200, 4, s) }},
		{"SampleEdges", func(s int64) any { return SampleEdges(base, 400, s) }},
		{"SampleNonEdges", func(s int64) any { return SampleNonEdges(base, 400, s) }},
		{"CrossRangeEdges", func(s int64) any { return CrossRangeEdges(3000, 3, 1000, 0.1, s) }},
	} {
		for _, seed := range []int64{1, 2} {
			if a, b := tc.build(seed), tc.build(seed); !reflect.DeepEqual(a, b) {
				t.Errorf("%s(seed %d): two builds differ", tc.name, seed)
			}
		}
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(500, 4, 7)
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	// Seed clique K5 has 10 edges, then 4 per arriving vertex.
	want := int64(10 + (500-5)*4)
	if g.M() != want {
		t.Fatalf("M = %d, want %d", g.M(), want)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Preferential attachment must produce a hub noticeably above k.
	if g.MaxDegree() < 12 {
		t.Fatalf("MaxDegree = %d: no hubs, preferential attachment broken", g.MaxDegree())
	}
}

func TestBarabasiAlbertRejectsBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BarabasiAlbert(3, 4, 1)
}

func TestRMATShapeAndSkew(t *testing.T) {
	g := RMAT(10, 4000, 3)
	if g.N() != 1024 || g.M() != 4000 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("RMAT should be skewed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(400, 3, 0.1, 5)
	if g.N() != 400 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Ring lattice with k=3 gives ~3n edges (minus rewire collisions).
	if g.M() < 1000 || g.M() > 1200 {
		t.Fatalf("M = %d out of expected band", g.M())
	}
}

func TestPowerLawCluster(t *testing.T) {
	g := PowerLawCluster(2000, 8, 2.5, 11)
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 4 || g.AvgDegree() > 12 {
		t.Fatalf("AvgDegree = %.2f, want near 8", g.AvgDegree())
	}
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Fatalf("power law should have hubs: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestTemporalStreamSortedAndComplete(t *testing.T) {
	g := ErdosRenyi(300, 900, 2)
	st := TemporalStream(g, 9)
	if len(st) != int(g.M()) {
		t.Fatalf("stream has %d edges, graph has %d", len(st), g.M())
	}
	seen := map[graph.Edge]bool{}
	for i, te := range st {
		if i > 0 && te.T < st[i-1].T {
			t.Fatal("timestamps not sorted")
		}
		if seen[te.E.Norm()] {
			t.Fatal("duplicate edge in stream")
		}
		seen[te.E.Norm()] = true
	}
}

func TestVertexArrivalsShape(t *testing.T) {
	const n, count, attach = 100, 40, 3
	batches := VertexArrivals(n, count, attach, 6)
	if len(batches) != count {
		t.Fatalf("%d batches, want %d", len(batches), count)
	}
	for i, batch := range batches {
		v := int32(n + i)
		if len(batch) != attach {
			t.Fatalf("batch %d has %d edges, want %d", i, len(batch), attach)
		}
		seen := map[int32]bool{}
		for _, e := range batch {
			if e.U != v {
				t.Fatalf("batch %d edge %v: first endpoint must be arriving vertex %d", i, e, v)
			}
			if e.V < 0 || e.V >= v {
				t.Fatalf("batch %d attaches to %d, want an earlier vertex", i, e.V)
			}
			if seen[e.V] {
				t.Fatalf("batch %d attaches to %d twice", i, e.V)
			}
			seen[e.V] = true
		}
	}
	// The whole stream over an empty base must still be a consistent graph.
	var all []graph.Edge
	for _, b := range batches {
		all = append(all, b...)
	}
	g := graph.MustFromEdges(n, all)
	if g.N() != n+count {
		t.Fatalf("N = %d, want %d", g.N(), n+count)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleEdgesAreDistinctAndPresent(t *testing.T) {
	g := ErdosRenyi(500, 2000, 4)
	s := SampleEdges(g, 300, 8)
	if len(s) != 300 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[graph.Edge]bool{}
	for _, e := range s {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("sampled edge %v not in graph", e)
		}
		if seen[e.Norm()] {
			t.Fatalf("duplicate sample %v", e)
		}
		seen[e.Norm()] = true
	}
}

func TestSampleEdgesClampsToM(t *testing.T) {
	g := ErdosRenyi(50, 100, 4)
	if got := len(SampleEdges(g, 1000, 1)); got != 100 {
		t.Fatalf("len = %d, want 100", got)
	}
}

func TestSampleNonEdgesAbsentAndDistinct(t *testing.T) {
	g := ErdosRenyi(500, 2000, 4)
	s := SampleNonEdges(g, 300, 8)
	if len(s) != 300 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[graph.Edge]bool{}
	for _, e := range s {
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("sampled non-edge %v is in graph", e)
		}
		if e.U == e.V || seen[e.Norm()] {
			t.Fatalf("bad sample %v", e)
		}
		seen[e.Norm()] = true
	}
}

// Property: every generator yields a consistent simple graph for arbitrary
// small seeds.
func TestQuickGeneratorsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		if ErdosRenyi(100, 300, seed).CheckConsistent() != nil {
			return false
		}
		if BarabasiAlbert(100, 3, seed).CheckConsistent() != nil {
			return false
		}
		if RMAT(7, 300, seed).CheckConsistent() != nil {
			return false
		}
		if WattsStrogatz(100, 2, 0.2, seed).CheckConsistent() != nil {
			return false
		}
		return PowerLawCluster(100, 6, 2.3, seed).CheckConsistent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossRangeEdges(t *testing.T) {
	const capacity, shards, m = 1200, 3, 4000
	owner := func(g int32) int32 { return g / (capacity / shards) }
	for _, frac := range []float64{0, 0.3, 1} {
		edges := CrossRangeEdges(capacity, shards, m, frac, 42)
		if len(edges) != m {
			t.Fatalf("frac %v: %d edges, want %d", frac, len(edges), m)
		}
		seen := map[graph.Edge]bool{}
		cross := 0
		for _, e := range edges {
			if e.U == e.V || e.U < 0 || e.V >= capacity {
				t.Fatalf("bad edge %v", e)
			}
			if seen[e.Norm()] {
				t.Fatalf("duplicate edge %v", e)
			}
			seen[e.Norm()] = true
			if owner(e.U) != owner(e.V) {
				cross++
			}
		}
		got := float64(cross) / m
		if got < frac-0.05 || got > frac+0.05 {
			t.Fatalf("frac %v: observed cross fraction %v", frac, got)
		}
	}
}
