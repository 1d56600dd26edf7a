package persist

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
)

// TestAppendBatchZeroAlloc pins the AOF hot path's allocation budget:
// once the encode scratch is warm, logging and committing a batch
// allocates nothing — the same discipline the serving write path already
// keeps — whether the append writes alone (no) or hands its fsync to the
// syncer goroutine (always).
func TestAppendBatchZeroAlloc(t *testing.T) {
	for _, pol := range []Fsync{FsyncNo, FsyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			mgr, err := NewManager(t.TempDir(), Options{Fsync: pol, Logger: log.New(os.Stderr, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			m := kcore.New(graph.New(64), kcore.WithOpLog(mgr))
			defer m.Close()
			if err := mgr.Start(m); err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()

			edges := make([]graph.Edge, 32)
			for i := range edges {
				edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
			}
			batch := func() { mgr.AppendBatch(edges[:16], edges[16:]); mgr.Commit() }
			batch() // warm the scratch
			if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
				t.Fatalf("AppendBatch+Commit allocates %.1f objects per call, want 0", allocs)
			}
			if err := mgr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseStopsSyncer: Close stops the FsyncAlways syncer goroutine
// Start started. The goroutine count returns to its baseline, and the
// maintainer — reachable from the Manager, so from a syncer that
// outlived Close — becomes garbage.
func TestCloseStopsSyncer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	wp := func() weak.Pointer[kcore.Maintainer] {
		mgr, err := NewManager(t.TempDir(), Options{Fsync: FsyncAlways, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		m := kcore.New(gen.ErdosRenyi(64, 128, 3), kcore.WithOpLog(mgr))
		if err := mgr.Start(m); err != nil {
			t.Fatal(err)
		}
		m.InsertEdge(1, 40)
		m.AddVertices(2)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		m.Close()
		return weak.Make(m)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline && wp.Value() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("5 s after Close: %d goroutines (baseline %d), maintainer collected: %v", n, baseline, wp.Value() == nil)
		}
	}
}

// BenchmarkAOFAppend measures the durability tax on one coalesced batch
// of 16 edges, per fsync policy. FsyncNo/EverySec is the encoding + page
// cache write; FsyncAlways pays the device sync that buys zero-loss
// durability.
func BenchmarkAOFAppend(b *testing.B) {
	for _, pol := range []Fsync{FsyncNo, FsyncEverySec, FsyncAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			mgr, err := NewManager(dir, Options{
				Fsync:           pol,
				CheckpointOps:   -1,
				CheckpointBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			m := kcore.New(graph.New(64), kcore.WithOpLog(mgr))
			defer m.Close()
			if err := mgr.Start(m); err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			edges := make([]graph.Edge, 16)
			for i := range edges {
				edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
			}
			b.SetBytes(int64(recHeaderSize + 5 + 8*len(edges)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr.AppendBatch(nil, edges)
			}
		})
	}
}

// BenchmarkColdStart pits the two ways a kcored gets its graph back
// against each other at n=1e6/m=4e6 — the README's "why checkpoints"
// numbers. Both arms end at the same place (a graph ready for
// kcore.New's BZ decomposition, decomposition included), so the delta is
// purely checkpoint-binary-read + log-tail replay vs text edge-list
// parse + from-scratch graph build. Run with -benchtime=3x for stable
// wall numbers.
func BenchmarkColdStart(b *testing.B) {
	const (
		n = 1_000_000
		m = 4_000_000
	)
	g := gen.ErdosRenyi(n, m, 7)

	// Arm 1 fixture: a durability dir holding the graph as checkpoint +
	// a 1000-op log tail.
	dir := b.TempDir()
	mgr, err := NewManager(dir, Options{Fsync: FsyncNo})
	if err != nil {
		b.Fatal(err)
	}
	mt := kcore.New(g.Clone(), kcore.WithOpLog(mgr))
	if err := mgr.Start(mt); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		u, v := int32(i), int32((i*31+7)%n)
		if u != v {
			mt.InsertEdge(u, v)
		}
	}
	mt.Flush()
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}
	mt.Close()

	// Arm 2 fixture: the same base graph as a text edge list (what
	// kcored -load reads).
	edgefile := filepath.Join(b.TempDir(), "edges.txt")
	f, err := os.Create(edgefile)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Recover(dir)
			if err != nil {
				b.Fatal(err)
			}
			core, _ := bz.Decompose(res.Graph)
			if len(core) != res.Graph.N() {
				b.Fatal("bad decomposition")
			}
		}
	})
	b.Run("loadfile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(edgefile)
			if err != nil {
				b.Fatal(err)
			}
			lg, err := graph.ReadEdgeList(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			core, _ := bz.Decompose(lg)
			if len(core) != lg.N() {
				b.Fatal("bad decomposition")
			}
		}
	})
}

// BenchmarkRecover measures end-to-end recovery (checkpoint read + tail
// replay + one BZ decomposition) against the cost it replaces: a fresh
// decomposition after re-reading a text edge list. Run with -benchtime=1x
// for the honest single-shot numbers quoted in the README.
func BenchmarkRecover(b *testing.B) {
	for _, scale := range []struct {
		n, m int
	}{
		{100_000, 400_000},
		{1_000_000, 4_000_000},
	} {
		b.Run(fmt.Sprintf("n=%d", scale.n), func(b *testing.B) {
			dir := b.TempDir()
			g := gen.ErdosRenyi(scale.n, int64(scale.m), 77)
			mgr, err := NewManager(dir, Options{Fsync: FsyncNo})
			if err != nil {
				b.Fatal(err)
			}
			m := kcore.New(g.Clone(), kcore.WithOpLog(mgr))
			if err := mgr.Start(m); err != nil {
				b.Fatal(err)
			}
			// A modest tail so replay cost shows up.
			for i := 0; i < 1000; i++ {
				u, v := int32(i%scale.n), int32((i*7+1)%scale.n)
				if u != v {
					m.InsertEdge(u, v)
				}
			}
			m.Flush()
			if err := mgr.Close(); err != nil {
				b.Fatal(err)
			}
			m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Recover(dir)
				if err != nil {
					b.Fatal(err)
				}
				core, _ := bz.Decompose(res.Graph)
				if len(core) != res.Graph.N() {
					b.Fatal("bad decomposition")
				}
			}
		})
	}
}
