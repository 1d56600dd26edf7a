package pcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
	"repro/internal/core"
)

func mustCheck(t *testing.T, st *core.State, context string) {
	t.Helper()
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestParallelInsertSingleWorkerMatchesSeq(t *testing.T) {
	base := gen.ErdosRenyi(120, 360, 1)
	batch := gen.SampleNonEdges(base, 80, 2)

	stPar := core.NewState(base.Clone())
	InsertEdges(stPar, batch, 1)
	mustCheck(t, stPar, "parallel 1w")

	stSeq := core.NewState(base.Clone())
	for _, e := range batch {
		stSeq.InsertEdgeSeq(e.U, e.V)
	}
	for v := int32(0); v < int32(base.N()); v++ {
		if stPar.CoreOf(v) != stSeq.CoreOf(v) {
			t.Fatalf("core[%d]: parallel %d, sequential %d", v, stPar.CoreOf(v), stSeq.CoreOf(v))
		}
	}
}

func TestParallelRemoveSingleWorkerMatchesSeq(t *testing.T) {
	base := gen.ErdosRenyi(120, 480, 3)
	batch := gen.SampleEdges(base, 100, 4)

	stPar := core.NewState(base.Clone())
	RemoveEdges(stPar, batch, 1)
	mustCheck(t, stPar, "parallel 1w remove")

	stSeq := core.NewState(base.Clone())
	for _, e := range batch {
		stSeq.RemoveEdgeSeq(e.U, e.V)
	}
	for v := int32(0); v < int32(base.N()); v++ {
		if stPar.CoreOf(v) != stSeq.CoreOf(v) {
			t.Fatalf("core[%d]: parallel %d, sequential %d", v, stPar.CoreOf(v), stSeq.CoreOf(v))
		}
	}
}

func TestParallelInsertManyWorkers(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		base := gen.ErdosRenyi(200, 600, int64(workers))
		batch := gen.SampleNonEdges(base, 150, int64(workers)+10)
		st := core.NewState(base.Clone())
		stats := InsertEdges(st, batch, workers)
		mustCheck(t, st, "insert")
		if applied := stats.Applied(); applied != len(batch) {
			t.Fatalf("%d workers: applied %d of %d", workers, applied, len(batch))
		}
	}
}

func TestParallelRemoveManyWorkers(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		base := gen.ErdosRenyi(200, 800, int64(workers)+20)
		batch := gen.SampleEdges(base, 200, int64(workers)+30)
		st := core.NewState(base.Clone())
		stats := RemoveEdges(st, batch, workers)
		mustCheck(t, st, "remove")
		if applied := stats.Applied(); applied != len(batch) {
			t.Fatalf("%d workers: applied %d of %d", workers, applied, len(batch))
		}
	}
}

// The adversarial case for level-parallel baselines: every vertex has the
// same core number (BA graphs), so all insertions contend on one k-order
// list. Parallel-Order must still be correct.
func TestParallelInsertSameCoreGraph(t *testing.T) {
	base := gen.BarabasiAlbert(300, 4, 5)
	batch := gen.SampleNonEdges(base, 200, 6)
	st := core.NewState(base.Clone())
	InsertEdges(st, batch, 8)
	mustCheck(t, st, "BA insert 8w")
}

func TestParallelRemoveSameCoreGraph(t *testing.T) {
	base := gen.BarabasiAlbert(300, 4, 7)
	batch := gen.SampleEdges(base, 250, 8)
	st := core.NewState(base.Clone())
	RemoveEdges(st, batch, 8)
	mustCheck(t, st, "BA remove 8w")
}

// Duplicate edges inside one batch: exactly one insertion applies.
func TestParallelInsertDuplicatesInBatch(t *testing.T) {
	base := gen.ErdosRenyi(60, 120, 9)
	fresh := gen.SampleNonEdges(base, 20, 10)
	batch := append(append([]graph.Edge{}, fresh...), fresh...) // each edge twice
	st := core.NewState(base.Clone())
	stats := InsertEdges(st, batch, 4)
	mustCheck(t, st, "dup insert")
	if applied := stats.Applied(); applied != len(fresh) {
		t.Fatalf("applied %d, want %d", applied, len(fresh))
	}
}

func TestParallelRemoveDuplicatesInBatch(t *testing.T) {
	base := gen.ErdosRenyi(60, 240, 11)
	chosen := gen.SampleEdges(base, 30, 12)
	batch := append(append([]graph.Edge{}, chosen...), chosen...)
	st := core.NewState(base.Clone())
	stats := RemoveEdges(st, batch, 4)
	mustCheck(t, st, "dup remove")
	if applied := stats.Applied(); applied != len(chosen) {
		t.Fatalf("applied %d, want %d", applied, len(chosen))
	}
}

func TestInsertThenRemoveRoundTripParallel(t *testing.T) {
	base := gen.PowerLawCluster(250, 6, 2.5, 13)
	batch := gen.SampleNonEdges(base, 180, 14)
	st := core.NewState(base.Clone())
	InsertEdges(st, batch, 6)
	mustCheck(t, st, "round trip inserts")
	RemoveEdges(st, batch, 6)
	mustCheck(t, st, "round trip removals")
	want := core.NewState(base)
	for v := int32(0); v < int32(base.N()); v++ {
		if st.CoreOf(v) != want.CoreOf(v) {
			t.Fatalf("core[%d] drifted: %d vs %d", v, st.CoreOf(v), want.CoreOf(v))
		}
	}
}

// Alternating batches on one engine per repair rule: the same-level rule and
// the whole-neighborhood rule New ships with must both leave I2 exact.
func TestAlternatingBatches(t *testing.T) {
	base := gen.RMAT(9, 1500, 15)
	for _, rule := range []struct {
		name string
		new  func(*core.State, int) *Engine
	}{{"same-level", newSameLevel}, {"neighborhood", New}} {
		st := core.NewState(base.Clone())
		e := rule.new(st, 4)
		rng := rand.New(rand.NewSource(16))
		for round := 0; round < 6; round++ {
			e.InsertEdges(gen.SampleNonEdges(st.G, 60, rng.Int63()))
			mustCheck(t, st, rule.name+": alternating insert round")
			e.RemoveEdges(gen.SampleEdges(st.G, 60, rng.Int63()))
			mustCheck(t, st, rule.name+": alternating remove round")
		}
	}
}

// Property: for random graphs and batches, 8-worker parallel maintenance
// ends in exactly the BZ ground truth with all invariants intact.
func TestQuickParallelMaintenance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(80)
		var base *graph.Graph
		switch rng.Intn(3) {
		case 0:
			base = gen.ErdosRenyi(n, int64(3*n), seed)
		case 1:
			base = gen.BarabasiAlbert(n, 3, seed)
		default:
			base = gen.WattsStrogatz(n, 3, 0.2, seed)
		}
		st := core.NewState(base.Clone())
		ins := gen.SampleNonEdges(base, 40, seed+1)
		InsertEdges(st, ins, 8)
		if err := st.CheckInvariants(); err != nil {
			t.Logf("seed %d insert: %v", seed, err)
			return false
		}
		rem := gen.SampleEdges(st.G, 40, seed+2)
		RemoveEdges(st, rem, 8)
		if err := st.CheckInvariants(); err != nil {
			t.Logf("seed %d remove: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Stress: a dense cluster where every insertion collides with every other.
// All workers fight over the same ~20 vertices.
func TestHighContentionClique(t *testing.T) {
	const n = 20
	base := graph.New(n)
	var all []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, graph.Edge{U: u, V: v})
		}
	}
	st := core.NewState(base.Clone())
	InsertEdges(st, all, 8)
	mustCheck(t, st, "clique built in parallel")
	for v := int32(0); v < n; v++ {
		if st.CoreOf(v) != n-1 {
			t.Fatalf("clique core[%d] = %d, want %d", v, st.CoreOf(v), n-1)
		}
	}
	RemoveEdges(st, all, 8)
	mustCheck(t, st, "clique dismantled in parallel")
	for v := int32(0); v < n; v++ {
		if st.CoreOf(v) != 0 {
			t.Fatalf("core[%d] = %d after dismantle", v, st.CoreOf(v))
		}
	}
}

func TestEmptyBatches(t *testing.T) {
	st := core.NewState(gen.ErdosRenyi(30, 60, 1))
	if got := InsertEdges(st, nil, 4); len(got.Sizes) != 0 {
		t.Fatal("empty insert batch must return empty stats")
	}
	if got := RemoveEdges(st, nil, 4); len(got.Sizes) != 0 {
		t.Fatal("empty remove batch must return empty stats")
	}
	mustCheck(t, st, "empty batches")
}

func TestSelfLoopsAndAbsentEdgesInBatch(t *testing.T) {
	base := gen.ErdosRenyi(50, 100, 2)
	st := core.NewState(base.Clone())
	ins := []graph.Edge{{U: 3, V: 3}, {U: 1, V: 2}}
	InsertEdges(st, ins, 2)
	rem := []graph.Edge{{U: 4, V: 4}, {U: 48, V: 49}}
	if st.G.HasEdge(48, 49) {
		t.Skip("unexpected edge in fixture")
	}
	RemoveEdges(st, rem, 2)
	mustCheck(t, st, "degenerate batches")
}

func TestMetricsReported(t *testing.T) {
	base := gen.BarabasiAlbert(300, 4, 31)
	ins := gen.SampleNonEdges(base, 200, 32)
	st := core.NewState(base.Clone())
	e := New(st, 8)
	snap := e.InsertEdges(ins).Metrics
	mustCheck(t, st, "metered insert")
	if snap.Promotions == 0 || snap.RepairTargets == 0 {
		t.Fatalf("a 200-edge BA batch must promote someone and repair it: %+v", snap)
	}
	rem := gen.SampleEdges(st.G, 200, 33)
	snap2 := e.RemoveEdges(rem).Metrics
	mustCheck(t, st, "metered remove")
	if snap2.Drops == 0 {
		t.Fatal("a 200-edge BA removal must drop someone")
	}
	// Counters are per batch: the removal promoted nobody.
	if snap2.Promotions != 0 {
		t.Fatalf("removal batch reports %d promotions", snap2.Promotions)
	}
}

// The paper's §4 argument in numbers: even under heavy contention (8 workers
// on one small clique), the system terminates and the contention counters
// stay finite and plausible.
func TestMetricsHighContention(t *testing.T) {
	const n = 16
	var all []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, graph.Edge{U: u, V: v})
		}
	}
	st := core.NewState(graph.New(n))
	e := New(st, 8)
	snap := e.InsertEdges(all).Metrics
	mustCheck(t, st, "contended insert")
	if snap.Promotions == 0 {
		t.Fatal("clique build must promote")
	}
	snap = e.RemoveEdges(all).Metrics
	mustCheck(t, st, "contended remove")
	if snap.Drops == 0 {
		t.Fatal("clique dismantle must drop")
	}
}
