package bz

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
)

// naiveCore computes core numbers by repeated peeling — an independent
// O(n·m) oracle.
func naiveCore(g *graph.Graph) []int32 {
	n := g.N()
	core := make([]int32, n)
	alive := make([]bool, n)
	deg := make([]int, n)
	for k := int32(0); ; k++ {
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = g.Degree(int32(v))
		}
		changed := true
		for changed {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < int(k) {
					alive[v] = false
					changed = true
					for _, u := range g.Adj(int32(v)) {
						if alive[u] {
							deg[u]--
						}
					}
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestDecomposeTriangle(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	core, order := Decompose(g)
	want := []int32{2, 2, 2, 1}
	for v, c := range core {
		if c != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, c, want[v])
		}
	}
	if len(order) != 4 || order[0] != 3 {
		t.Fatalf("peeling order %v must start with the degree-1 vertex", order)
	}
}

func TestDecomposeClique(t *testing.T) {
	var edges []graph.Edge
	const k = 6
	for u := int32(0); u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.MustFromEdges(k, edges)
	core, _ := Decompose(g)
	for v, c := range core {
		if c != k-1 {
			t.Fatalf("core[%d] = %d, want %d", v, c, k-1)
		}
	}
}

func TestDecomposeEmptyAndIsolated(t *testing.T) {
	core, order := Decompose(graph.New(0))
	if len(core) != 0 || len(order) != 0 {
		t.Fatal("empty graph must give empty results")
	}
	core, order = Decompose(graph.New(3))
	if len(order) != 3 {
		t.Fatalf("order len = %d", len(order))
	}
	for _, c := range core {
		if c != 0 {
			t.Fatal("isolated vertices have core 0")
		}
	}
}

func TestDecomposePath(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	core, _ := Decompose(g)
	for v, c := range core {
		if c != 1 {
			t.Fatalf("core[%d] = %d, want 1", v, c)
		}
	}
}

func TestDecomposeMatchesNaiveOnSuite(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   gen.ErdosRenyi(300, 900, 1),
		"ba":   gen.BarabasiAlbert(300, 3, 2),
		"rmat": gen.RMAT(8, 700, 3),
		"ws":   gen.WattsStrogatz(300, 2, 0.2, 4),
		"plc":  gen.PowerLawCluster(300, 6, 2.5, 5),
	}
	for name, g := range graphs {
		want := naiveCore(g)
		got, order := Decompose(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: core[%d] = %d, want %d", name, v, got[v], want[v])
			}
		}
		validatePeelingOrder(t, g, got, order, name)
	}
}

// validatePeelingOrder checks that order is a valid k-order: cores are
// non-decreasing along the order, every vertex appears exactly once, and
// d+out(v) := |{w in adj(v): v before w}| <= core(v) for all v (the
// invariant Order-based maintenance relies on, paper §3.3.1).
func validatePeelingOrder(t *testing.T, g *graph.Graph, core []int32, order []int32, name string) {
	t.Helper()
	n := g.N()
	if len(order) != n {
		t.Fatalf("%s: order has %d entries, want %d", name, len(order), n)
	}
	pos := make([]int32, n)
	seen := make([]bool, n)
	for i, v := range order {
		if seen[v] {
			t.Fatalf("%s: vertex %d twice in order", name, v)
		}
		seen[v] = true
		pos[v] = int32(i)
		if i > 0 && core[order[i-1]] > core[v] {
			t.Fatalf("%s: core numbers decrease along order at %d", name, i)
		}
	}
	for v := 0; v < n; v++ {
		dout := int32(0)
		for _, w := range g.Adj(int32(v)) {
			if pos[v] < pos[w] {
				dout++
			}
		}
		if dout > core[v] {
			t.Fatalf("%s: d+out(%d) = %d > core %d: invalid k-order", name, v, dout, core[v])
		}
	}
}

func TestDecomposeWithStrategyMatchesDecompose(t *testing.T) {
	for _, strat := range []TieStrategy{SmallDegreeFirst, LargeDegreeFirst, RandomTie} {
		for seed := int64(0); seed < 3; seed++ {
			g := gen.ErdosRenyi(200, 600, seed+10)
			want, _ := Decompose(g)
			got, order := DecomposeWithStrategy(g, strat, seed)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("strategy %d seed %d: core[%d] = %d, want %d", strat, seed, v, got[v], want[v])
				}
			}
			validatePeelingOrder(t, g, got, order, "strategy")
		}
	}
}

func TestStrategiesProduceValidButDifferentOrders(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	_, o1 := DecomposeWithStrategy(g, SmallDegreeFirst, 0)
	_, o2 := DecomposeWithStrategy(g, LargeDegreeFirst, 0)
	diff := false
	for i := range o1 {
		if o1[i] != o2[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("small- and large-degree-first gave identical orders on a hub graph")
	}
}

func TestMaxCoreAndHistogram(t *testing.T) {
	core := []int32{0, 1, 1, 2, 2, 2}
	if MaxCore(core) != 2 {
		t.Fatalf("MaxCore = %d", MaxCore(core))
	}
	h := CoreHistogram(core)
	if h[0] != 1 || h[1] != 2 || h[2] != 3 {
		t.Fatalf("histogram %v", h)
	}
	if DistinctCores(core) != 3 {
		t.Fatalf("DistinctCores = %d", DistinctCores(core))
	}
}

// Property: decomposition agrees with the naive oracle on random graphs.
func TestQuickDecomposeAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		m := int64(rng.Intn(3 * n))
		g := gen.ErdosRenyi(n, m, seed)
		want := naiveCore(g)
		got, _ := Decompose(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecomposeER(b *testing.B) {
	g := gen.ErdosRenyi(50000, 200000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}

// BenchmarkAblationTieStrategy compares the three tie-breaking strategies
// (§3.3.1); the paper selects "small degree first".
func BenchmarkAblationTieStrategy(b *testing.B) {
	g := gen.ErdosRenyi(5000, 20000, 1)
	for _, s := range []struct {
		name  string
		strat TieStrategy
	}{
		{"SmallDegreeFirst", SmallDegreeFirst},
		{"LargeDegreeFirst", LargeDegreeFirst},
		{"RandomTie", RandomTie},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DecomposeWithStrategy(g, s.strat, 1)
			}
		})
	}
}

// TieStrategy selects which vertex to peel when several share the minimal
// current degree (paper §3.3.1).
type TieStrategy int

const (
	// SmallDegreeFirst prefers vertices with smaller initial degree; the
	// paper's experiments use this strategy as it "consistently has the
	// best performance".
	SmallDegreeFirst TieStrategy = iota
	// LargeDegreeFirst prefers vertices with larger initial degree.
	LargeDegreeFirst
	// RandomTie picks uniformly among the candidates.
	RandomTie
)

// DecomposeWithStrategy computes core numbers and a peeling order using
// bucket queues with an explicit tie strategy. Core numbers are identical to
// Decompose for every strategy; only the emitted k-order instance differs.
// seed is used by RandomTie only.
func DecomposeWithStrategy(g *graph.Graph, strat TieStrategy, seed int64) (core []int32, order []int32) {
	n := g.N()
	core = make([]int32, n)
	order = make([]int32, 0, n)
	if n == 0 {
		return core, order
	}
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int32, n)
	orig := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		orig[v] = deg[v]
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	processed := 0
	d := int32(0)
	for processed < n {
		if d > maxDeg {
			break
		}
		b := buckets[d]
		if len(b) == 0 {
			d++
			continue
		}
		// Pick the candidate per strategy. Entries may be stale
		// (vertex degree has changed); skip those lazily.
		idx := -1
		switch strat {
		case SmallDegreeFirst, LargeDegreeFirst:
			var best int32
			for i, v := range b {
				if removed[v] || deg[v] != d {
					continue
				}
				if idx == -1 ||
					(strat == SmallDegreeFirst && orig[v] < best) ||
					(strat == LargeDegreeFirst && orig[v] > best) {
					idx, best = i, orig[v]
				}
			}
		case RandomTie:
			liveCount := 0
			for _, v := range b {
				if !removed[v] && deg[v] == d {
					liveCount++
				}
			}
			if liveCount > 0 {
				target := rng.Intn(liveCount)
				for i, v := range b {
					if removed[v] || deg[v] != d {
						continue
					}
					if target == 0 {
						idx = i
						break
					}
					target--
				}
			}
		}
		if idx == -1 {
			buckets[d] = b[:0]
			d++
			continue
		}
		v := b[idx]
		b[idx] = b[len(b)-1]
		buckets[d] = b[:len(b)-1]
		removed[v] = true
		core[v] = d
		order = append(order, v)
		processed++
		for _, u := range g.Adj(v) {
			if !removed[u] && deg[u] > d {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < d {
					panic("bz: degree fell below current level")
				}
			}
		}
	}
	return core, order
}

// DistinctCores counts non-empty histogram bins.
func DistinctCores(core []int32) int {
	n := 0
	for _, c := range CoreHistogram(core) {
		if c > 0 {
			n++
		}
	}
	return n
}
