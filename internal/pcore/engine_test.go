package pcore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/core"
)

// hubRing builds a ring of `ring` vertices (0..ring-1), a hub adjacent to all
// of them, and a clique of `clique` more vertices that contains the hub. Ring
// vertices have core 3 (two ring neighbors and the hub); the hub has core
// `clique`, far from the level every ring move happens at.
func hubRing(ring, clique int) (g *graph.Graph, hub int32) {
	hub = int32(ring)
	var edges []graph.Edge
	for i := 0; i < ring; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % ring)})
		edges = append(edges, graph.Edge{U: int32(i), V: hub})
	}
	for a := ring; a <= ring+clique; a++ {
		for b := a + 1; b <= ring+clique; b++ {
			edges = append(edges, graph.Edge{U: int32(a), V: int32(b)})
		}
	}
	return graph.MustFromEdges(ring+clique+1, edges), hub
}

// Cutting a ring edge drops the whole ring from core 3 to 2, and closing it
// again promotes the whole ring back: every ring vertex moves, each next to
// the hub. Under the same-level rule the repair must recompute the moved
// vertices and their ring neighbors only — never the hub, whose adjacency
// scan is what makes one low-core vertex beside a hub cost a two-hop walk —
// so its target count is bounded by the same-level neighborhoods of the moves.
func TestRepairSkipsOffLevelHub(t *testing.T) {
	const ring, clique = 600, 8
	for _, workers := range []int{1, 2} {
		g, hub := hubRing(ring, clique)
		st := core.NewState(g)
		if c := st.CoreOf(hub); c != clique {
			t.Fatalf("hub core %d, want %d", c, clique)
		}
		var mu sync.Mutex
		hubRepairs := 0
		traceFn = func(format string, args ...any) {
			if format == traceRepair && args[0].(int32) == hub {
				mu.Lock()
				hubRepairs++
				mu.Unlock()
			}
		}
		e := newSameLevel(st, workers)
		cuts := []graph.Edge{{U: 0, V: 1}, {U: 200, V: 201}, {U: 400, V: 401}}
		for round := 0; round < 3; round++ {
			for _, b := range []Batch{e.RemoveEdges(cuts), e.InsertEdges(cuts)} {
				m := b.Metrics
				moves := m.Promotions + m.Drops + m.Evictions
				if moves < ring {
					t.Fatalf("w=%d round %d: %d moves, the whole ring (%d) should move", workers, round, moves, ring)
				}
				// A ring vertex has at most two neighbors at its own level.
				if m.RepairTargets > 3*moves {
					t.Fatalf("w=%d round %d: %d repair targets for %d moves, want <= %d",
						workers, round, m.RepairTargets, moves, 3*moves)
				}
			}
			if err := st.CheckInvariants(); err != nil {
				traceFn = nil
				t.Fatalf("w=%d round %d: %v", workers, round, err)
			}
		}
		traceFn = nil
		if hubRepairs != 0 {
			t.Fatalf("w=%d: the hub (core %d, %d neighbors) was recomputed %d times by level-2/3 moves",
				workers, clique, g.Degree(hub), hubRepairs)
		}
	}
}

// The repair pass expands a mover's neighborhood when the batch is over, so
// a neighbor whose edge to the mover is removed later in the same batch is
// no longer in that neighborhood. Two triangles {a, b, x} and {y, z, w}
// joined by the edge (x, w) all sit at core 2, and the peel puts x before w
// in O_2, so d⁺out(x) counts the edge. Removing (w, y) drops y, z and w to
// core 1, w to the tail of O_1: in front of x, which stays at 2, so the
// edge (x, w) flips without x's d⁺out following. Removing (w, x) later in
// the batch then takes the edge out of w's count, and only recordRemoval
// still names x as a target. A self-loop in between keeps both removals in
// worker 0's share, in order, with two workers.
func TestRepairAfterRemovingFlippedEdge(t *testing.T) {
	const a, b, x, y, z, w = 0, 1, 2, 3, 4, 5
	edges := []graph.Edge{{U: a, V: b}, {U: b, V: x}, {U: x, V: a}, {U: y, V: z}, {U: z, V: w}, {U: w, V: y}, {U: x, V: w}}
	batch := []graph.Edge{{U: w, V: y}, {U: a, V: a}, {U: w, V: x}}
	for _, workers := range []int{1, 2} {
		for _, sameLevel := range []bool{false, true} {
			st := core.NewState(graph.MustFromEdges(6, edges))
			if !st.Before(x, w) {
				t.Fatal("the peel put w before x: the removal below flips nothing")
			}
			e := New(st, workers)
			e.sameLevel = sameLevel
			e.RemoveEdges(batch)
			if cx, cw := st.CoreOf(x), st.CoreOf(w); cx != 2 || cw != 1 {
				t.Fatalf("cores x %d, w %d; want 2 and 1", cx, cw)
			}
			mustCheck(t, st, fmt.Sprintf("w=%d sameLevel=%v", workers, sameLevel))
		}
	}
}

// The repair pass recomputes each target once per batch, however many
// workers share its walk and however many moves name the target: every
// worker walks a share of every moved list and marks into one bit set,
// and only after all have walked does each scan its own words. Removal and
// insertion batches alternate on a power-law graph under the
// whole-neighborhood rule that New ships. At one worker the targets are
// pinned to the counts the pass gave when each worker walked every moved
// list alone and cleared the moves' marks first: the shared walk and the
// marks it keeps name the same targets. Under -race a scan that starts
// before every worker has walked races with the walk's marks.
func TestRepairRecomputesEachTargetOnce(t *testing.T) {
	base := gen.PowerLawCluster(6000, 10, 2.4, 11)
	batch := gen.SampleEdges(base, 600, 12)
	want1 := []int64{3121, 3181, 3121, 3181, 3121, 3181}
	defer func() { traceFn = nil }()
	for _, workers := range []int{1, 2, 3} {
		st := core.NewState(base.Clone())
		e := New(st, workers)
		var mu sync.Mutex
		recomputes := map[int32]int{}
		traceFn = func(format string, args ...any) {
			if format == traceRepair {
				mu.Lock()
				recomputes[args[0].(int32)]++
				mu.Unlock()
			}
		}
		var got []int64
		for round := 0; round < 3; round++ {
			for _, insert := range []bool{false, true} {
				clear(recomputes)
				apply := e.RemoveEdges
				if insert {
					apply = e.InsertEdges
				}
				m := apply(batch).Metrics
				if m.Rebuilds != 0 || m.RepairTargets == 0 {
					t.Fatalf("w=%d round %d insert=%v: %d rebuilds, %d repair targets; the batch must end in a repair",
						workers, round, insert, m.Rebuilds, m.RepairTargets)
				}
				for v, c := range recomputes {
					if c > 1 {
						t.Fatalf("w=%d round %d insert=%v: vertex %d recomputed %d times", workers, round, insert, v, c)
					}
				}
				if int64(len(recomputes)) != m.RepairTargets {
					t.Fatalf("w=%d round %d insert=%v: %d vertices recomputed, RepairTargets %d",
						workers, round, insert, len(recomputes), m.RepairTargets)
				}
				if workers == 1 && m.CommitWaits != 0 {
					t.Fatalf("w=1 round %d insert=%v: %d commit waits, want 0", round, insert, m.CommitWaits)
				}
				got = append(got, m.RepairTargets)
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("w=%d round %d insert=%v: %v", workers, round, insert, err)
				}
			}
		}
		t.Logf("w=%d: repair targets per batch %v", workers, got)
		if workers == 1 && !slices.Equal(got, want1) {
			t.Fatalf("w=1: repair targets per batch %v, want %v", got, want1)
		}
	}
}

// Warmed workers allocate (next to) nothing: every per-edge set, queue and
// report buffer lives on the engine. What remains is the OM lists' own group
// splits and, with more than one worker, the goroutines of the two fork-join
// phases — per batch, not per edge.
func TestWarmWorkersDoNotAllocatePerEdge(t *testing.T) {
	base := gen.PowerLawCluster(4000, 10, 2.4, 7)
	batch := gen.SampleEdges(base, 256, 8)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			st := core.NewState(base.Clone())
			e := New(st, workers)
			round := func() {
				if got := e.RemoveEdges(batch).Applied(); got != len(batch) {
					t.Fatalf("removed %d of %d", got, len(batch))
				}
				if got := e.InsertEdges(batch).Applied(); got != len(batch) {
					t.Fatalf("inserted %d of %d", got, len(batch))
				}
			}
			round() // warm the scratch
			perEdge := testing.AllocsPerRun(10, round) / float64(2*len(batch))
			t.Logf("%.4f allocs per edge", perEdge)
			// The ceiling asked for is 1 (the engine used to spend 3);
			// a quarter of it still leaves the measured figure 10x room.
			if perEdge > 0.25 {
				t.Fatalf("%.2f allocs per edge on warmed workers, want <= 0.25", perEdge)
			}
			mustCheck(t, st, "after alloc rounds")
		})
	}
}

// The removal status window, deterministically and on two levels: a vertex x
// at level k whose drop has published t but not yet the lowered core number
// (doMCD's order) must be ignored by a CheckMCD at level k+1 — it reads "core
// (k+1)-1, in flight" exactly like a vertex that has just dropped from k+1
// and still owes its decrement — and counted by one at level k, before and
// after the core store.
func TestCheckMCDIgnoresDropFromOtherLevel(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle: cores 2
		{U: 0, V: 3}, {U: 3, V: 4}, // tail: cores 1
	})
	st := core.NewState(g)
	p := newWorker(st)
	mcd := func(x int32) int32 {
		st.Mcd[x].Store(core.McdEmpty)
		p.checkMCD(x, -1)
		return st.Mcd[x].Load()
	}
	st.T[3].Store(core.DropStatus(1, 2)) // x = 3 starts its 1 -> 0 drop: t first
	if got := mcd(0); got != 2 {
		t.Fatalf("level-2 recount in the window of a 1->0 drop: mcd(0) = %d, want 2", got)
	}
	if got := mcd(4); got != 1 {
		t.Fatalf("level-1 recount in the window: mcd(4) = %d, want 1", got)
	}
	st.Core[3].Store(0)
	if got := mcd(0); got != 2 {
		t.Fatalf("level-2 recount after the core store: mcd(0) = %d, want 2", got)
	}
	if got := mcd(4); got != 1 {
		t.Fatalf("level-1 recount of a neighbor in flight from level 1: mcd(4) = %d, want 1", got)
	}
	// The recount forces a propagating neighbor to run again (1 -> 3),
	// keeping the level tag.
	st.T[3].Store(core.DropStatus(1, 1))
	mcd(4)
	if got := st.T[3].Load(); got != core.DropStatus(1, 3) {
		t.Fatalf("t[3] = %d after a level-1 recount, want redo status %d", got, core.DropStatus(1, 3))
	}
	mcd(0)
	if got := st.T[3].Load(); got != core.DropStatus(1, 3) {
		t.Fatalf("a level-2 recount touched t[3]: %d", got)
	}
}

func TestMarks(t *testing.T) {
	var m marks
	if m.get(5) != 0 {
		t.Fatal("empty table must report no flags")
	}
	for v := int32(0); v < 1000; v++ {
		m.set(v*7, mStar)
		if v%3 == 0 {
			m.set(v*7, mQueued)
		}
	}
	m.unset(21, mStar)
	for v := int32(0); v < 1000; v++ {
		want := mStar
		if v%3 == 0 {
			want |= mQueued
		}
		if v == 3 {
			want &^= mStar
		}
		if got := m.get(v * 7); got != want {
			t.Fatalf("flags(%d) = %b, want %b", v*7, got, want)
		}
		if v%7 != 0 && m.get(v) != 0 {
			t.Fatalf("unmarked %d has flags", v)
		}
	}
	m.reset()
	if len(m.used) != 0 || m.get(7) != 0 {
		t.Fatal("reset must clear every flag")
	}
	// A table grown far beyond scratchKeep entries is dropped by reset.
	for v := int32(0); v < 4*scratchKeep; v++ {
		m.set(v, mDone)
	}
	m.reset()
	if m.slots != nil {
		t.Fatalf("reset kept a %d-slot table", len(m.slots))
	}
}
