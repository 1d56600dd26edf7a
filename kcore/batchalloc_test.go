package kcore

import (
	"fmt"
	"testing"

	"repro/gen"
	"repro/internal/snapshot"
)

// A warm ParallelOrder batch allocates only what it returns, whatever its
// size: the engine's per-edge and per-batch scratch, its repair pass, the
// applier's report buffer and the snapshot pages it publishes into are all
// carried from one batch to the next. What remains per batch is its future
// and result (the VPlusSizes slice), the published View and, with two
// workers, the goroutines of the apply and repair forks — the same for 256
// edges as for 4 096.
func TestWarmBatchAllocs(t *testing.T) {
	// Twenty full pages: a short last page is never recycled.
	base := gen.PowerLawCluster(20*snapshot.PageSize, 10, 2.4, 5)
	for _, workers := range []int{1, 2} {
		for _, size := range []int{256, 4096} {
			t.Run(fmt.Sprintf("w%d/%d", workers, size), func(t *testing.T) {
				m := New(base.Clone(), WithAlgorithm(ParallelOrder), WithWorkers(workers))
				defer m.Close()
				batch := gen.SampleEdges(base, size, int64(size))
				moved := 0
				round := func() {
					for _, res := range []BatchResult{m.RemoveEdges(batch), m.InsertEdges(batch)} {
						if res.Applied != len(batch) {
							t.Fatalf("applied %d of %d", res.Applied, len(batch))
						}
						moved += res.ChangedVertices
					}
				}
				round() // warm the scratch
				round()
				moved = 0
				perBatch := testing.AllocsPerRun(10, round) / 2
				t.Logf("%.1f allocations per warm %d-edge batch (%d moves a round)", perBatch, size, moved/11)
				// Per batch: the future, the result's VPlusSizes and
				// the View (3), plus with two workers the two forks'
				// goroutine closures and what the runtime allocates
				// for the goroutines themselves (4 more); one of
				// slack at each worker count.
				maxPerBatch := 4.0
				if workers == 2 {
					maxPerBatch = 8
				}
				if perBatch > maxPerBatch {
					t.Fatalf("%.1f allocations per warm %d-edge batch at w=%d, want at most %.0f whatever the size",
						perBatch, size, workers, maxPerBatch)
				}
				if err := m.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
