package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/kcore"
)

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCheckpointRetainsNoGraph pins what durability keeps resident: the
// checkpoint is streamed into its file, so after Start and two more
// checkpoints the live heap holds no encoded copy of the graph. Not
// parallel: it measures the whole process's live heap.
func TestCheckpointRetainsNoGraph(t *testing.T) {
	const n = 1 << 17
	rng := rand.New(rand.NewSource(1))
	edges := make([]graph.Edge, 7*n) // average degree ≈ 14
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	g := graph.MustFromEdges(n, edges)
	edges = nil
	encoded := 24 + 4*int64(n) + 8*g.M() // graph.WriteBinary's size

	mgr, err := NewManager(t.TempDir(), Options{Fsync: FsyncNo, CheckpointOps: -1, CheckpointBytes: -1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(g, kcore.WithOpLog(mgr))
	defer m.Close()
	m.Flush()
	before := liveHeap()
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for i := 0; i < 2; i++ {
		if err := mgr.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	delta := after - before
	t.Logf("n=%d m=%d: graph encoding %.2f MiB; live heap %.2f → %.2f MiB after Start + 2 checkpoints (delta %+.3f MiB)",
		n, g.M(), float64(encoded)/(1<<20), float64(before)/(1<<20), float64(after)/(1<<20), float64(delta)/(1<<20))
	if delta > 1<<20 {
		t.Fatalf("checkpoints left %d B resident (graph encoding is %d B), want <= 1 MiB", delta, encoded)
	}
	runtime.KeepAlive(m)
}

// TestCheckpointFileLayout rebuilds a checkpoint's bytes independently of
// the writer — header, graph.WriteBinary, trailing CRC-32C — and compares
// them with the file on disk byte for byte.
func TestCheckpointFileLayout(t *testing.T) {
	dir := t.TempDir()
	m, mgr := startManaged(t, dir, gen.ErdosRenyi(300, 900, 7), Options{Fsync: FsyncAlways})
	defer m.Close()
	defer mgr.Close()
	m.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 310}})
	m.RemoveEdges([]graph.Edge{{U: 1, V: 2}})
	m.Flush()
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(checkpointPath(dir, mgr.Stats().Gen))
	if err != nil {
		t.Fatal(err)
	}

	g := m.Graph()
	var want bytes.Buffer
	put := func(v any) { binary.Write(&want, binary.LittleEndian, v) }
	put(uint32(0x4b434b50)) // "KCKP"
	put(uint32(4))          // format version
	put(mgr.Stats().Gen)
	put(m.Epoch())
	if err := g.WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	put(crc32.Checksum(want.Bytes(), crc32.MakeTable(crc32.Castagnoli)))

	if !bytes.Equal(got, want.Bytes()) {
		i := 0
		for i < min(len(got), len(want.Bytes())) && got[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("checkpoint file (%d B) differs from the rebuilt layout (%d B) at byte %d", len(got), want.Len(), i)
	}
}

// TestCheckpointFailureIsSticky fails a checkpoint at each step that can
// fail before its rename commits it — the checkpoint file cannot be
// created, or the log cannot rotate after it was written — and asserts
// the failure is sticky, leaves no tmp file of its own, keeps the current
// generation on the previous one, and loses no write acked before it.
func TestCheckpointFailureIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name     string
		obstacle func(dir string, gen uint64) string
	}{
		{"checkpoint tmp is a directory", func(dir string, gen uint64) string { return checkpointPath(dir, gen) + ".tmp" }},
		{"next segment is a directory", segmentPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, mgr := startManaged(t, dir, gen.ErdosRenyi(200, 600, 5), Options{Fsync: FsyncAlways})
			defer m.Close()
			defer mgr.Close()
			for i := int32(0); i < 20; i++ {
				m.InsertEdge(i, i+100)
			}
			m.Flush()
			acked := m.Graph().Clone()
			prev := mgr.Stats().Gen
			obstacle := tc.obstacle(dir, prev+1)
			if err := os.Mkdir(obstacle, 0o755); err != nil {
				t.Fatal(err)
			}

			if err := mgr.CheckpointNow(); err == nil {
				t.Fatal("CheckpointNow succeeded past the obstacle")
			}
			if mgr.Err() == nil {
				t.Fatal("checkpoint failure did not set the sticky error")
			}
			if err := os.Remove(obstacle); err != nil {
				t.Fatal(err)
			}
			if err := mgr.CheckpointNow(); err == nil || mgr.Err() == nil {
				t.Fatalf("after the obstacle is gone: CheckpointNow = %v, Err = %v; want both sticky", err, mgr.Err())
			}
			if _, g, err := scanGenerations(dir); err != nil || g != prev {
				t.Fatalf("current generation = %d (err=%v), want the previous generation %d", g, err, prev)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
				t.Fatalf("failed checkpoints left tmp files: %v", tmps)
			}

			cp := t.TempDir()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			assertRecoverMatches(t, cp, acked)
		})
	}
}

// TestCorruptCheckpointHeader: a checkpoint whose graph header counts do
// not match its size is rejected before the reader allocates for those
// counts; a flipped graph byte fails the CRC. Each one is fed to Recover
// as a file and to ReadCheckpoint as a reader, the way a follower reads
// FULLSYNC — where the size comes from the leader's handshake, not from
// a stat.
func TestCorruptCheckpointHeader(t *testing.T) {
	dir := t.TempDir()
	m, mgr := startManaged(t, dir, gen.ErdosRenyi(500, 2000, 9), Options{Fsync: FsyncAlways})
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, mgr.Stats().Gen)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphHdr := ckptHeaderSize
	// cutAfterGraphHeader is a checkpoint of 2^17 isolated vertices whose
	// graph is cut after its header, right before the CRC tail: only the
	// header-vs-size check keeps ReadBinary from allocating 2^17 vertex
	// records for it.
	cutAfterGraphHeader := func(ckpt []byte) []byte {
		const n = 1 << 17
		b := make([]byte, ckptHeaderSize+graphHeaderSize+4)
		copy(b, ckpt[:8]) // magic, version
		gh := b[ckptHeaderSize:]
		copy(gh, ckpt[graphHdr:graphHdr+8])
		binary.LittleEndian.PutUint64(gh[8:], n)
		return b
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		size   int64 // the size ReadCheckpoint is told; 0 = the mutated length
	}{
		{"inflated graph n", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[graphHdr+8:], 1<<24); return b }, 0},
		{"inflated graph m", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[graphHdr+16:], 1<<24); return b }, 0},
		{"flipped graph byte", func(b []byte) []byte { b[graphHdr+graphHeaderSize] ^= 0x5a; return b }, 0},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, 0},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, 0},
		{"cut after the graph header", cutAfterGraphHeader, 0},
		{"2^34 declared over 10 bytes", func(b []byte) []byte { return b[:10] }, 1 << 34},
	} {
		b := tc.mutate(append([]byte(nil), data...))
		size := tc.size
		if size == 0 {
			size = int64(len(b))
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, read := range []struct {
			via string
			run func() error
		}{
			{"Recover", func() error { _, err := Recover(dir); return err }},
			{"ReadCheckpoint", func() error { _, _, _, err := ReadCheckpoint(bytes.NewReader(b), size); return err }},
		} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			err := read.run()
			runtime.ReadMemStats(&ms)
			if err == nil {
				t.Errorf("%s: %s accepted a corrupt checkpoint", tc.name, read.via)
			}
			if alloc := ms.TotalAlloc - before; alloc > 1<<20 {
				t.Errorf("%s: %s allocated %d B before rejecting a %d B checkpoint", tc.name, read.via, alloc, len(b))
			}
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
}

// FuzzReadCheckpoint feeds ReadCheckpoint arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode, from its generation,
// epoch and graph alone, to the very same bytes.
func FuzzReadCheckpoint(f *testing.F) {
	g := gen.ErdosRenyi(50, 120, 3)
	var seed bytes.Buffer
	if err := encodeCheckpoint(&seed, 7, 42, g); err != nil {
		f.Fatal(err)
	}
	b := seed.Bytes()
	for _, cut := range []int{len(b), len(b) - 1, len(b) - 4, len(b) / 2, ckptHeaderSize + graphHeaderSize, ckptHeaderSize, 10, 0} {
		f.Add(b[:cut])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, gen, epoch, err := ReadCheckpoint(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := encodeCheckpoint(&out, gen, epoch, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), b) {
			t.Fatalf("accepted %d B re-encode to %d different bytes", len(b), out.Len())
		}
	})
}
