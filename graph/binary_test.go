package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		g := New(n)
		if n > 1 {
			for i := 0; i < 4*n; i++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u != v {
					g.AddEdge(u, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("n=%d: WriteBinary: %v", n, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: ReadBinary: %v", n, err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("n=%d: got n=%d m=%d, want n=%d m=%d", n, got.N(), got.M(), g.N(), g.M())
		}
		for v := int32(0); v < int32(n); v++ {
			a, b := g.Adj(v), got.Adj(v)
			if len(a) != len(b) {
				t.Fatalf("n=%d: degree mismatch at %d: %d vs %d", n, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d: adj[%d][%d] = %d, want %d", n, v, i, b[i], a[i])
				}
			}
		}
		if err := got.CheckConsistent(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestBinaryDecodedAppendSafe: a decoded graph's blocks are packed
// exact-fit, so adding an edge to one must relocate it, never clobber the
// neighbouring vertex's block.
func TestBinaryDecodedAppendSafe(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.AddEdge(0, 2) // appends to adj[0], which abuts adj[1] in the backing
	if !d.HasEdge(0, 1) || !d.HasEdge(2, 3) || !d.HasEdge(0, 2) {
		t.Fatalf("adjacency clobbered after append: %v", d.Edges())
	}
	if err := d.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := New(8)
	g.AddEdge(0, 1)
	g.AddEdge(5, 6)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ok := buf.Bytes()

	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), ok...)
		f(b)
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded corrupt stream without error", name)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] ^= 0xff })
	mutate("bad version", func(b []byte) { b[4] = 99 })
	mutate("degree sum mismatch", func(b []byte) { b[24]++ })            // degree[0]++
	mutate("neighbor out of range", func(b []byte) { b[len(b)-4] = 88 }) // last target id
	if _, err := ReadBinary(bytes.NewReader(ok[:len(ok)-3])); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

// A header whose 2m exceeds the arena's uint32 offsets must be refused
// before anything of that size is allocated: sixteen degrees of 2^28 add
// up to 2m = 2^32, within the loose per-vertex bound, so only the arena
// bound stands between the stream and a 16 GiB allocation. The stream
// ends after the degrees.
func TestBinaryRejectsArenaOverflow(t *testing.T) {
	const n, d = 16, 1 << 28
	b := make([]byte, 24+4*n)
	binary.LittleEndian.PutUint32(b[0:], binaryMagic)
	binary.LittleEndian.PutUint32(b[4:], binaryVersion)
	binary.LittleEndian.PutUint64(b[8:], n)
	binary.LittleEndian.PutUint64(b[16:], n*d/2)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[24+4*i:], d)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a graph of 2m > 2^32 entries")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("allocated %d B before refusing: %v", grew, err)
	}
	if !strings.Contains(err.Error(), "overflows the adjacency arena") {
		t.Fatalf("refused for another reason: %v", err)
	}
}
