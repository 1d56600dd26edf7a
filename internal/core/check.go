package core

import (
	"fmt"

	"repro/internal/bz"
)

// CheckInvariants verifies every quiescent invariant of the maintenance
// state (DESIGN.md I1-I4):
//
//	I1 core numbers equal a fresh BZ decomposition of the current graph;
//	I2 the k-order is valid: walking the lists O_0, O_1, ... in order,
//	   every vertex's recomputed d⁺out (neighbors that follow it) is at
//	   most its core number, and the stored Dout matches;
//	I3 every stored (non-empty) mcd matches Definition 3.8;
//	I4 each OM list is structurally sound and holds exactly the vertices
//	   of its core value; S and T are quiescent (even / 0).
//
// It must only be called with no maintenance operation in flight.
func (st *State) CheckInvariants() error {
	n := st.N()
	truth, _ := bz.Decompose(st.G)
	for v := 0; v < n; v++ {
		if got := st.Core[v].Load(); got != truth[v] {
			return fmt.Errorf("I1: core[%d] = %d, want %d", v, got, truth[v])
		}
	}

	// Walk the lists to recover the global k-order.
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = -1
	}
	idx := int64(0)
	maxK := st.MaxCoreValue()
	for k := int32(0); k <= maxK; k++ {
		items, err := st.List(k).Check()
		if err != nil {
			return fmt.Errorf("I4: list O_%d: %w", k, err)
		}
		for _, v := range items {
			if st.Core[v].Load() != k {
				return fmt.Errorf("I4: vertex %d with core %d sits in O_%d", v, st.Core[v].Load(), k)
			}
			if pos[v] != -1 {
				return fmt.Errorf("I4: vertex %d in two lists", v)
			}
			pos[v] = idx
			idx++
		}
	}
	if idx != int64(n) {
		return fmt.Errorf("I4: lists hold %d vertices, want %d", idx, n)
	}

	for v := int32(0); v < int32(n); v++ {
		dout := int32(0)
		for _, w := range st.G.Adj(v) {
			if pos[v] < pos[w] {
				dout++
			}
		}
		if got := st.Dout[v].Load(); got != dout {
			return fmt.Errorf("I2: dout[%d] = %d, recomputed %d", v, got, dout)
		}
		if c := st.Core[v].Load(); dout > c {
			return fmt.Errorf("I2: dout[%d] = %d exceeds core %d (invalid k-order)", v, dout, c)
		}
		if s := st.S[v].Load(); s&1 != 0 {
			return fmt.Errorf("I4: s[%d] = %d odd at quiescence", v, s)
		}
		if t := st.T[v].Load(); t != 0 {
			return fmt.Errorf("I4: t[%d] = %d at quiescence", v, t)
		}
		if m := st.Mcd[v].Load(); m != McdEmpty {
			want := int32(0)
			cv := st.Core[v].Load()
			for _, w := range st.G.Adj(v) {
				if st.Core[w].Load() >= cv {
					want++
				}
			}
			if m != want {
				return fmt.Errorf("I3: mcd[%d] = %d, want %d", v, m, want)
			}
		}
		if l := &st.Locks[v]; l.Locked() {
			return fmt.Errorf("I4: vertex %d still locked", v)
		}
	}
	return nil
}

// CheckPeelOrder verifies that the k-order is the one a rebuild lays out
// from the current graph: the walk O_0, O_1, ... is BZ's peeling order
// stably partitioned by core number. With CheckInvariants, which counts
// every d⁺out over that walk, it pins the whole state a rebuild leaves. It
// holds after NewState or Rebuild until the next update moves a vertex. For
// tests.
func (st *State) CheckPeelOrder() error {
	cores, order := bz.Decompose(st.G)
	start := make([]int, bz.MaxCore(cores)+2)
	for _, c := range cores {
		start[c+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	want := make([]int32, len(order))
	for _, v := range order {
		want[start[cores[v]]] = v
		start[cores[v]]++
	}
	var walk []int32
	for k := int32(0); k <= st.MaxCoreValue(); k++ {
		items, err := st.List(k).Check()
		if err != nil {
			return fmt.Errorf("list O_%d: %w", k, err)
		}
		walk = append(walk, items...)
	}
	if len(walk) != len(want) {
		return fmt.Errorf("lists hold %d vertices, want %d", len(walk), len(want))
	}
	for i, v := range want {
		if walk[i] != v {
			return fmt.Errorf("k-order position %d holds %d, the peeling order %d", i, walk[i], v)
		}
	}
	return nil
}
