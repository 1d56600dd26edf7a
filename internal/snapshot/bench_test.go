package snapshot

import (
	"fmt"
	"math/rand"
	"sync/atomic"
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
				p.Publish(append([]int32(nil), cores...), int64(n))
				base := p.Current()
				// The grown tail's changed set: vstar fresh vertices
				// promoted to core 1 right after arrival.
				tailChanged := make([]VertexCore, vstar)
				for i := range tailChanged {
					tailChanged[i] = VertexCore{V: int32(n + (i*growBy)/vstar), Core: 1}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Rewind to the pre-growth view, so every iteration
					// pays one real grow + tail delta without the
					// universe compounding across iterations.
					p.rewind(base)
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

// rewind reinstalls v, a View this Publisher published earlier, as
// current. The writer's record of which objects it owns describes the
// View it replaces, so it is reset: v's objects are treated as not the
// Publisher's own and never reclaimed (v may have escaped). Same package:
// the store is all a publish instant costs.
func (p *Publisher) rewind(v *View) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.pageBorn)
	p.pageBorn = p.pageBorn[:len(v.pages)]
	p.tableBorn, p.histBorn = 0, 0
	p.cur.Store(v)
}

// BenchmarkPoisonFill measures the poison fill every reclaimed page pays:
// fill's doubling copy against a plain store loop, on one 4 KiB page.
func BenchmarkPoisonFill(b *testing.B) {
	page := make([]int32, PageSize)
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fill(page, poison)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range page {
				page[j] = poison
			}
		}
	})
}

// BenchmarkPublishBesideReaders measures an 8-page delta publication on a
// 200-page graph while one Reader pins and unpins in a loop beside it, with
// 0 or 4096 more Readers that each pinned once and went idle — a server
// with many open, quiet connections. An idle Reader holds no slot, so the
// two should cost the same.
func BenchmarkPublishBesideReaders(b *testing.B) {
	for _, idle := range []int{0, 4096} {
		b.Run(fmt.Sprint("idle=", idle), func(b *testing.B) {
			const n = 200 * PageSize
			var p Publisher
			p.Publish(make([]int32, n), 0)
			for range idle {
				r := p.NewReader()
				r.Pin()
				r.Unpin()
			}
			var stop atomic.Bool
			done := make(chan int32)
			go func() {
				r := p.NewReader()
				var sum int32
				for !stop.Load() {
					v := r.Pin()
					for i := int32(0); i < 32; i++ {
						sum += v.CoreOf(i * 977)
					}
					r.Unpin()
				}
				done <- sum
			}()
			changed := make([]VertexCore, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range changed {
					changed[j] = VertexCore{V: int32(j * 25 * PageSize), Core: int32(i%2) + 1}
				}
				p.PublishDelta(changed, 0)
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		})
	}
}
