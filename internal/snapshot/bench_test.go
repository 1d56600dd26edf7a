package snapshot

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// BenchmarkSnapshotPublish prices the two ways to make a View on an
// n-vertex graph, after a batch that changed |V*| core numbers:
//
//   - full:  Load — materialize the core array (the O(n) copy a
//     quiescent engine scan pays) and build the aggregates from scratch;
//   - delta: Publish — clone only the pages the changed set dirties and
//     patch the histogram by ± moves; at vstar = n/4 and vstar = n it
//     prices a batch that moves a large share of the graph;
//   - jes:   Publish of a raw report as the join-edge-set engine emits it,
//     every vertex repeated (a touch at two levels): delta plus the cost
//     of reading the repeats;
//   - grow:  one Publish that mints 8192 fresh vertices (8 new zero pages
//     plus the page-table copy) and patches |V*| of them — O(|V*| +
//     newPages·PageSize + n/PageSize).
//
// The delta, jes and grow rows should be independent of n's linear term
// and proportional to the dirty/new page count.
func BenchmarkSnapshotPublish(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		cores := make([]int32, n)
		for i := range cores {
			cores[i] = rng.Int31n(64)
		}
		for _, vstar := range []int{1, 100, 10_000, n / 4, n} {
			verts := make([]int32, vstar)
			for i, v := range rng.Perm(n)[:vstar] {
				verts[i] = int32(v)
			}
			// Two alternating sides over the same vertices, so every
			// iteration really patches pages instead of hitting the
			// no-op skip.
			side := int32(1)
			coreOf := func(v int32) int32 { return cores[v] + side }
			name := fmt.Sprintf("n=%d/vstar=%d", n, vstar)
			b.Run(name+"/full", func(b *testing.B) {
				var p Publisher
				p.Load(append([]int32(nil), cores...), int64(n), 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Load(append([]int32(nil), cores...), int64(n), p.Head().Epoch+1)
				}
			})
			b.Run(name+"/delta", func(b *testing.B) {
				var p Publisher
				p.Load(append([]int32(nil), cores...), int64(n), 1)
				side = 1
				p.Publish(n, int64(n), verts, coreOf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side = int32(i % 2)
					p.Publish(n, int64(n), verts, coreOf)
				}
			})
			if vstar > 10_000 {
				continue // the large changed sets price delta against full only
			}
			b.Run(name+"/grow", func(b *testing.B) {
				const growBy = 8 * PageSize
				var p Publisher
				p.Load(append([]int32(nil), cores...), int64(n), 1)
				base := p.Current()
				// The grown tail's changed set: vstar fresh vertices
				// promoted to core 1 right after arrival.
				tail := make([]int32, vstar)
				for i := range tail {
					tail[i] = int32(n + (i*growBy)/vstar)
				}
				one := func(int32) int32 { return 1 }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Rewind to the pre-growth view, so every iteration
					// pays one real grow without the universe compounding
					// across iterations.
					p.rewind(base)
					p.Publish(n+growBy, int64(n), tail, one)
				}
			})
			b.Run(name+"/jes", func(b *testing.B) {
				raw := append(slices.Clone(verts), verts...)
				var p Publisher
				p.Load(append([]int32(nil), cores...), int64(n), 1)
				// Pre-warm onto side 1 so iteration 0 (side 0) patches
				// real pages instead of hitting the no-op skip, exactly
				// like the delta case above.
				side = 1
				p.Publish(n, int64(n), raw, coreOf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side = int32(i % 2)
					p.Publish(n, int64(n), raw, coreOf)
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
			p.Load(make([]int32, n), 0, 1)
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
			changed := make([]int32, 8)
			for j := range changed {
				changed[j] = int32(j * 25 * PageSize)
			}
			core := int32(0)
			coreOf := func(int32) int32 { return core }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core = int32(i%2) + 1
				p.Publish(n, 0, changed, coreOf)
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		})
	}
}
