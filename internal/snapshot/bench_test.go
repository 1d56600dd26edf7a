package snapshot

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSnapshotPublish contrasts the two publication paths the serving
// layer can take after a batch that changed |V*| core numbers on an
// n-vertex graph:
//
//   - full:  what every publication used to cost — materialize the core
//     array (the O(n) copy a quiescent engine scan pays) and rebuild the
//     aggregates from scratch;
//   - delta: the copy-on-write path — clone only the pages the changed
//     set dirties and patch the histogram by ± deltas;
//   - jes:   the join-edge-set engine's publish path — a raw multi-level
//     changed report (vertices repeat across rounds) goes through
//     BuildDelta's dedup and then the same COW patch, i.e. delta plus the
//     per-report dedup cost;
//   - grow:  the streaming-graph growth path — PublishGrow mints 8192
//     fresh vertices (8 new zero pages plus the page-table copy) and a
//     post-growth PublishDelta patches |V*| vertices inside the grown
//     tail. The row must stay O(|V*| + newPages·PageSize + n/PageSize):
//     growth never triggers the O(n) rebuild.
//
// The delta, jes and grow rows should be independent of n's linear term
// and proportional to the dirty/new page count.
func BenchmarkSnapshotPublish(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		cores := make([]int32, n)
		for i := range cores {
			cores[i] = rng.Int31n(64)
		}
		for _, vstar := range []int{1, 100, 10_000} {
			if vstar > n {
				continue
			}
			// Two alternating changed sets over the same vertices, so
			// every iteration really patches pages instead of hitting
			// the no-op skip.
			verts := rng.Perm(n)[:vstar]
			flip := make([][]VertexCore, 2)
			for side := range flip {
				flip[side] = make([]VertexCore, vstar)
				for i, v := range verts {
					flip[side][i] = VertexCore{V: int32(v), Core: cores[v] + int32(side)}
				}
			}
			name := fmt.Sprintf("n=%d/vstar=%d", n, vstar)
			b.Run(name+"/full", func(b *testing.B) {
				var p Publisher
				p.Publish(append([]int32(nil), cores...), int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Publish(append([]int32(nil), cores...), int64(n))
				}
			})
			b.Run(name+"/delta", func(b *testing.B) {
				var p Publisher
				p.Publish(append([]int32(nil), cores...), int64(n))
				p.PublishDelta(flip[1], int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.PublishDelta(flip[i%2], int64(n))
				}
			})
			b.Run(name+"/grow", func(b *testing.B) {
				const growBy = 8 * PageSize
				var p Publisher
				base := p.Publish(append([]int32(nil), cores...), int64(n))
				// The grown tail's changed set: vstar fresh vertices
				// promoted to core 1 right after arrival.
				tailChanged := make([]VertexCore, vstar)
				for i := range tailChanged {
					tailChanged[i] = VertexCore{V: int32(n + (i*growBy)/vstar), Core: 1}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Rewind to the pre-growth view (same package: the
					// atomic store is all a publish-instant costs), so
					// every iteration pays one real grow + tail delta
					// without the universe compounding across iterations.
					p.cur.Store(base)
					p.PublishGrow(n+growBy, int64(n))
					p.PublishDelta(tailChanged, int64(n))
				}
				b.StopTimer()
				if st := p.Stats(); st.Full != 1 {
					b.Fatalf("post-growth publish fell back to %d full rebuilds", st.Full-1)
				}
			})
			b.Run(name+"/jes", func(b *testing.B) {
				// Raw changed report as the JES engine emits it: every
				// vertex repeated (a touch at two levels). BuildDelta +
				// PublishDelta is the publication work one JES batch
				// costs the applier.
				raw := make([]int32, 0, 2*vstar)
				for _, v := range verts {
					raw = append(raw, int32(v))
				}
				for _, v := range verts {
					raw = append(raw, int32(v))
				}
				var p Publisher
				p.Publish(append([]int32(nil), cores...), int64(n))
				// The dedup scratch the applier carries from batch to batch.
				seen := make([]uint64, (n+63)/64)
				side := int32(1)
				coreOf := func(v int32) int32 { return cores[v] + side }
				// Pre-warm onto side 1 so iteration 0 (side 0) patches
				// real pages instead of hitting the no-op skip, exactly
				// like the delta case above.
				delta, _ := BuildDelta(nil, seen, raw, n, coreOf)
				p.PublishDelta(delta, int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side = int32(i % 2)
					var ok bool
					if delta, ok = BuildDelta(delta, seen, raw, n, coreOf); !ok {
						b.Fatal("unexpected rebuild fallback")
					}
					p.PublishDelta(delta, int64(n))
				}
			})
		}
	}
}
