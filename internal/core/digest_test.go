package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/gen"
)

// seqDigest runs a seeded sequential history on a power-law graph — 20 000
// steps, two insertions of a random pair to one removal of a random vertex's
// edge — and returns the FNV-64a hash, over little-endian int64s, of what
// every operation reported (an insertion's |V+|, |V*| and V*, a removal's
// |V*| and V*) and of the final state: each list O_0 … O_max in walk order,
// every vertex with its d⁺out and mcd, and -1 after each list.
func seqDigest(t *testing.T, seed int64) uint64 {
	t.Helper()
	g := gen.PowerLawCluster(3000, 8, 2.4, seed)
	st := NewState(g)
	n := int32(st.N())
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for step := 0; step < 20000; step++ {
		u := rng.Int31n(n)
		if rng.Intn(3) < 2 {
			s := st.InsertEdgeSeq(u, rng.Int31n(n))
			hashInts(h, int64(s.VPlus), int64(s.VStar))
			hashVertices(h, s.Changed)
		} else if adj := st.G.Adj(u); len(adj) > 0 {
			s := st.RemoveEdgeSeq(u, adj[rng.Intn(len(adj))])
			hashInts(h, int64(s.VStar))
			hashVertices(h, s.Changed)
		}
	}
	mustCheck(t, st, fmt.Sprintf("seed %d", seed))
	for k := int32(0); k <= st.MaxCoreValue(); k++ {
		walk, err := st.List(k).Check()
		if err != nil {
			t.Fatalf("seed %d: O_%d: %v", seed, k, err)
		}
		for _, v := range walk {
			hashInts(h, int64(v), int64(st.Dout[v].Load()), int64(st.Mcd[v].Load()))
		}
		hashInts(h, -1)
	}
	return h.Sum64()
}

func hashInts(h hash.Hash64, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashVertices(h hash.Hash64, vs []int32) {
	for _, v := range vs {
		hashInts(h, int64(v))
	}
}

// TestSeqHistoryDigest pins the sequential engine's behaviour — every
// operation's report and the final k-order, d⁺out and mcd — on three seeded
// histories, so a change to its scratch or its data structures that alters
// any decision it takes shows.
func TestSeqHistoryDigest(t *testing.T) {
	want := map[int64]uint64{
		1: 0x047892ce9321acf7,
		2: 0xc1682e8e908bb4c3,
		3: 0x52c79a51cf8a9e9b,
	}
	for seed := int64(1); seed <= 3; seed++ {
		if got := seqDigest(t, seed); got != want[seed] {
			t.Errorf("seed %d: digest %016x, want %016x", seed, got, want[seed])
		}
	}
}
