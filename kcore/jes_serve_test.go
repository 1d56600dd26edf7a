package kcore

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/gen"
	"repro/internal/snapshot"
)

// TestJESHeldViewStableDuringBatches mirrors TestOldViewStableDuringPublishes
// for the JoinEdgeSet engine, which publishes through the copy-on-write
// delta path since it learned to report per-batch V*: a view held across
// JES batches — including views grabbed while a multi-round JES batch is
// mid-flight — must never mutate. Run with -race: the JES engine is the
// only one whose batch application is itself internally parallel
// (level-concurrent goroutines), so it is the sharpest probe for a publish
// that aliases live engine state.
func TestJESHeldViewStableDuringBatches(t *testing.T) {
	base := gen.ErdosRenyi(2*snapshot.PageSize+33, 12_000, 91)
	n := int32(base.N())
	pool := gen.SampleNonEdges(base, 192, 92)
	m := New(base, WithAlgorithm(JoinEdgeSet), WithWorkers(4))
	defer m.Close()

	held := m.Snapshot()
	want := held.CoresInto(nil)
	wantMax, wantM := held.MaxCore(), held.M()
	wantHist := append([]int64(nil), held.Histogram()...)

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		rounds := 4
		if testing.Short() {
			rounds = 2
		}
		for i := 0; i < rounds; i++ {
			m.InsertEdges(pool)
			m.RemoveEdges(pool)
		}
	}()

	// Snapshots grabbed mid-batch must be frozen too: each probe takes
	// the current view, reads a sample of vertices twice, and demands
	// identical answers even while the JES batch keeps running.
	var probes sync.WaitGroup
	for p := 0; p < 3; p++ {
		probes.Add(1)
		go func(p int) {
			defer probes.Done()
			for !writerDone.Load() {
				s := m.Snapshot()
				first := make([]int32, 64)
				for i := range first {
					first[i] = s.CoreOf((int32(i*67) + int32(p)) % n)
				}
				h := append([]int64(nil), s.Histogram()...)
				for i := range first {
					if again := s.CoreOf((int32(i*67) + int32(p)) % n); again != first[i] {
						t.Errorf("mid-batch snapshot mutated: vertex %d read %d then %d",
							(i*67+p)%int(n), first[i], again)
						return
					}
				}
				for k, v := range s.Histogram() {
					if h[k] != v {
						t.Errorf("mid-batch snapshot histogram mutated at %d", k)
						return
					}
				}
			}
		}(p)
	}

	// And the view held from before the writer started must keep its
	// original contents to the byte.
	for r := 0; r < 12 || !writerDone.Load(); r++ {
		for v := int32(0); v < n; v++ {
			if got := held.CoreOf(v); got != want[v] {
				t.Errorf("held view drifted: core[%d] = %d, want %d", v, got, want[v])
				wg.Wait()
				probes.Wait()
				return
			}
		}
		if held.MaxCore() != wantMax || held.M() != wantM {
			t.Fatalf("held view aggregates drifted")
		}
		for k, h := range held.Histogram() {
			if h != wantHist[k] {
				t.Fatalf("held view hist drifted at %d", k)
			}
		}
	}
	wg.Wait()
	probes.Wait()

	// The point of the exercise: JES now rides the delta path.
	st := m.ServingStats()
	if st.DeltaPublishes == 0 {
		t.Fatalf("JES published no deltas: %+v", st)
	}
	if m.Epoch() == held.Epoch() {
		t.Fatal("epoch never advanced")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}
