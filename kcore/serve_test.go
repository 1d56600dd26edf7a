package kcore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/gen"
	"repro/graph"
	"repro/internal/snapshot"
)

// TestCoalesceLastOpWins exercises the pure coalescer: per canonical edge
// the last enqueued op must win (within one op, its insertions after its
// removals), opposite-kind supersessions must count as canceled, and
// single-op segments must pass through verbatim.
func TestCoalesceLastOpWins(t *testing.T) {
	insOp := func(edges ...graph.Edge) *Pending { return &Pending{inserts: edges} }
	rmOp := func(edges ...graph.Edge) *Pending { return &Pending{removes: edges} }
	e := func(u, v int32) graph.Edge { return graph.Edge{U: u, V: v} }

	// One coalescer throughout, as on the applier: each call must start
	// from cleared scratch.
	var co coalescer
	coalesce := co.coalesce

	// Single op: verbatim, including non-canonical edge order.
	rem, ins, canceled := coalesce([]*Pending{insOp(e(3, 1), e(1, 2))})
	if len(rem) != 0 || len(ins) != 2 || canceled != 0 || ins[0] != e(3, 1) {
		t.Fatalf("single op: rem=%v ins=%v canceled=%d", rem, ins, canceled)
	}

	// insert(1,2) then remove(2,1): the pair annihilates into a removal
	// of the canonical edge; the insert counts as canceled.
	rem, ins, canceled = coalesce([]*Pending{
		insOp(e(1, 2)),
		rmOp(e(2, 1)),
	})
	if len(ins) != 0 || len(rem) != 1 || rem[0] != e(1, 2) || canceled != 1 {
		t.Fatalf("cancel pair: rem=%v ins=%v canceled=%d", rem, ins, canceled)
	}

	// remove then insert: insert wins; same-kind duplicates dedup without
	// counting as canceled.
	rem, ins, canceled = coalesce([]*Pending{
		rmOp(e(5, 6)),
		insOp(e(6, 5), e(7, 8)),
		insOp(e(8, 7)),
	})
	if len(rem) != 0 || len(ins) != 2 || canceled != 1 {
		t.Fatalf("remove-then-insert: rem=%v ins=%v canceled=%d", rem, ins, canceled)
	}
	if ins[0] != e(5, 6) || ins[1] != e(7, 8) {
		t.Fatalf("first-seen order lost: %v", ins)
	}

	// One op carrying both halves, behind an insert: its removals come
	// first, so (1,2), which it names in both, ends inserted; (3,4) it only
	// removes, superseding the earlier insert; (5,6) it only inserts.
	rem, ins, canceled = coalesce([]*Pending{
		insOp(e(3, 4)),
		{removes: []graph.Edge{e(2, 1), e(4, 3)}, inserts: []graph.Edge{e(1, 2), e(6, 5)}},
	})
	if len(rem) != 1 || rem[0] != e(3, 4) || len(ins) != 2 || ins[0] != e(1, 2) || ins[1] != e(5, 6) || canceled != 2 {
		t.Fatalf("mixed op: rem=%v ins=%v canceled=%d", rem, ins, canceled)
	}

	// The scratch of a huge segment is not carried over — not even when
	// every later segment takes the single-op fast path.
	var big []graph.Edge
	for i := int32(0); i <= coalesceKeep; i++ {
		big = append(big, e(i, i+1))
	}
	coalesce([]*Pending{insOp(big...), insOp(e(0, 2))})
	coalesce([]*Pending{insOp(e(1, 3))})
	if co.last != nil || co.order != nil {
		t.Fatalf("scratch of a %d-edge segment survived the next call", len(big)+1)
	}
}

// TestPipelineCoalescesCancelingPair drives a canceling insert/remove pair
// through the live pipeline deterministically: a blocking barrier parks the
// applier, both ops are enqueued behind it, and releasing the barrier must
// drain them as one coalesced batch that leaves the graph unchanged.
func TestPipelineCoalescesCancelingPair(t *testing.T) {
	base := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	m := New(base)
	defer m.Close()
	before := m.ServingStats()

	gate := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.barrier(func() { close(entered); <-gate })
	}()
	// Once the applier is inside the barrier, its current drain is fixed:
	// everything enqueued now lands in the next drain, together.
	<-entered

	var results [2]BatchResult
	wg.Add(2)
	go func() { defer wg.Done(); results[0] = m.InsertEdge(0, 3) }()
	// Wait until the insert sits in the queue so the remove lands after it.
	for m.ServingStats().Enqueued < before.Enqueued+2 {
		time.Sleep(100 * time.Microsecond)
	}
	go func() { defer wg.Done(); results[1] = m.RemoveEdge(3, 0) }()
	for m.ServingStats().Enqueued < before.Enqueued+3 {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	after := m.ServingStats()
	if got := after.Batches - before.Batches; got != 1 {
		t.Fatalf("expected 1 coalesced batch, got %d", got)
	}
	if got := after.CanceledOps - before.CanceledOps; got != 1 {
		t.Fatalf("expected 1 canceled op, got %d", got)
	}
	for i, r := range results {
		if r.Coalesced != 2 {
			t.Fatalf("op %d: Coalesced = %d, want 2", i, r.Coalesced)
		}
	}
	// The pair annihilated: edge (0,3) was never present and must not be.
	if m.Graph().HasEdge(0, 3) {
		t.Fatal("canceled pair left the edge in the graph")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReadYourWrites: an update call's effects must be visible to queries
// the moment the call returns, for every engine.
func TestReadYourWrites(t *testing.T) {
	for _, alg := range allAlgorithms {
		m := New(graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), WithAlgorithm(alg))
		if m.CoreOf(0) != 1 {
			t.Fatalf("%v: initial core = %d", alg, m.CoreOf(0))
		}
		e0 := m.Epoch()
		m.InsertEdge(0, 2) // closes the triangle
		if got := m.CoreOf(0); got != 2 {
			t.Fatalf("%v: core after insert = %d, want 2 (stale snapshot?)", alg, got)
		}
		if m.Epoch() <= e0 {
			t.Fatalf("%v: epoch did not advance across a batch", alg)
		}
		if got := m.Flush(); got < m.Epoch()-1 {
			t.Fatalf("%v: Flush returned stale epoch %d", alg, got)
		}
		s := m.Snapshot()
		if s.MaxCore() != 2 || s.CoreOf(1) != 2 || s.M() != 3 || s.N() != 3 {
			t.Fatalf("%v: snapshot %+v inconsistent", alg, s)
		}
		m.Close()
	}
}

// TestEpochMonotonic: under concurrent writers the published epoch must
// never decrease, and must advance while batches are applied.
func TestEpochMonotonic(t *testing.T) {
	base := gen.ErdosRenyi(200, 600, 21)
	m := New(base.Clone(), WithWorkers(2))
	defer m.Close()
	pool := gen.SampleNonEdges(base, 120, 22)

	start := m.Epoch()
	var stop atomic.Bool
	var regressed atomic.Bool
	var writers, sampler sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			chunk := pool[w*30 : (w+1)*30]
			for i := 0; i < 20; i++ {
				m.InsertEdges(chunk)
				m.RemoveEdges(chunk)
			}
		}(w)
	}
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		last := m.Epoch()
		for !stop.Load() {
			e := m.Epoch()
			if e < last {
				regressed.Store(true)
				return
			}
			last = e
		}
	}()
	writers.Wait()
	stop.Store(true)
	sampler.Wait()
	if regressed.Load() {
		t.Fatal("epoch went backwards")
	}
	if m.Epoch() <= start {
		t.Fatal("epoch did not advance under writers")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestQueriesDuringBatchesRace is the -race regression for the seed's
// unlocked read path: 10 query goroutines hammer every read API while
// insert/remove batches run, for both engine families. Queries must be
// race-free, block-free, and the final state must match a fresh
// decomposition.
func TestQueriesDuringBatchesRace(t *testing.T) {
	for _, alg := range []Algorithm{ParallelOrder, Traversal} {
		base := gen.ErdosRenyi(300, 900, 31)
		m := New(base.Clone(), WithAlgorithm(alg), WithWorkers(4))
		pool := gen.SampleNonEdges(base, 200, 32)

		var stop atomic.Bool
		var wg sync.WaitGroup
		var reads atomic.Int64
		for q := 0; q < 10; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				v := int32(q)
				for !stop.Load() {
					switch q % 5 {
					case 0:
						m.CoreOf(v % 300)
					case 1:
						m.CoreNumbers()
					case 2:
						m.MaxCore()
					case 3:
						m.CoreHistogram()
					case 4:
						s := m.Snapshot()
						if s.CoreOf(v%300) > s.MaxCore() {
							panic("snapshot internally inconsistent")
						}
					}
					v++
					reads.Add(1)
				}
			}(q)
		}

		for i := 0; i < 6; i++ {
			m.InsertEdges(pool)
			m.RemoveEdges(pool)
		}
		stop.Store(true)
		wg.Wait()
		if reads.Load() == 0 {
			t.Fatalf("%v: no queries completed", alg)
		}

		truth := Decompose(m.Graph())
		m.Flush()
		for v, want := range truth {
			if got := m.CoreOf(int32(v)); got != want {
				t.Fatalf("%v: core[%d] = %d, want %d", alg, v, got, want)
			}
		}
		m.Close()
	}
}

// TestConcurrentWritersConverge: many writers pushing overlapping single
// edges and batches through the pipeline must leave a state identical to a
// fresh decomposition of the final graph.
func TestConcurrentWritersConverge(t *testing.T) {
	base := gen.ErdosRenyi(150, 450, 41)
	m := New(base.Clone(), WithWorkers(4))
	defer m.Close()
	pool := gen.SampleNonEdges(base, 96, 42)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := pool[w*12 : (w+1)*12]
			for round := 0; round < 10; round++ {
				if round%2 == 0 {
					for _, e := range chunk {
						m.InsertEdge(e.U, e.V)
					}
				} else {
					m.RemoveEdges(chunk)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	truth := Decompose(m.Graph())
	for v, want := range truth {
		if got := m.CoreOf(int32(v)); got != want {
			t.Fatalf("core[%d] = %d, want %d", v, got, want)
		}
	}
	st := m.ServingStats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue not drained: depth %d", st.QueueDepth)
	}
	if st.Batches == 0 || st.BatchedOps < st.Batches {
		t.Fatalf("implausible pipeline stats: %+v", st)
	}
	if st.UpdateLatency.N == 0 {
		t.Fatal("no update latencies recorded")
	}
}

// TestUseAfterClose: Close is idempotent, reads keep answering from the
// last published snapshot, and every update or barrier panics — the
// applier is the engine's only driver, so nothing may apply once it has
// exited.
func TestUseAfterClose(t *testing.T) {
	m := New(graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}))
	m.InsertEdge(0, 2)
	m.Close()
	m.Close() // idempotent
	epoch := m.Epoch()
	if m.CoreOf(0) != 2 || m.N() != 3 || m.Snapshot().MaxCore() != 2 || m.ServingStats().Epoch != epoch {
		t.Fatalf("reads after Close: core %d, N %d, stats %+v", m.CoreOf(0), m.N(), m.ServingStats())
	}
	if got, ok := m.WaitEpoch(epoch, time.Millisecond, nil); !ok || got != epoch {
		t.Fatalf("WaitEpoch(%d) after Close = %d, %v", epoch, got, ok)
	}
	for name, use := range map[string]func(){
		"InsertEdge":   func() { m.InsertEdge(0, 3) },
		"RemoveEdges":  func() { m.RemoveEdges([]graph.Edge{{U: 0, V: 1}}) },
		"Submit":       func() { m.Submit(new(Pending), nil, []graph.Edge{{U: 0, V: 1}}) },
		"AddVertices":  func() { m.AddVertices(1) },
		"Flush":        func() { m.Flush() },
		"Check":        func() { m.Check() },
		"AtQuiescence": func() { m.AtQuiescence(func(QuiescentState) {}) },
		"Reload":       func() { m.Reload(graph.New(1), epoch) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "kcore: Maintainer used after Close" {
					t.Errorf("%s after Close: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
	if m.Epoch() != epoch || m.CoreOf(0) != 2 {
		t.Fatalf("a refused update moved the state: epoch %d, core %d", m.Epoch(), m.CoreOf(0))
	}
}

// TestServingStatsCounters sanity-checks the instrumentation satellite.
func TestServingStatsCounters(t *testing.T) {
	m := New(graph.New(4))
	defer m.Close()
	m.InsertEdge(0, 1)
	m.InsertEdge(1, 2)
	m.Flush()
	st := m.ServingStats()
	if st.Enqueued != 3 || st.Flushes != 1 {
		t.Fatalf("stats %+v: want 3 enqueued, 1 flush", st)
	}
	if st.Batches < 2 || st.Epoch == 0 {
		t.Fatalf("stats %+v: want >= 2 batches and nonzero epoch", st)
	}
}

// TestFinishedOpIsGarbage: once an op's waiter has returned, nothing in the
// pipeline may keep the op — or the caller's edge slice it points to —
// reachable. The applier reuses its drain buffer, so a slot it does not
// clear pins the last drain's ops until some later drain is long enough to
// overwrite it.
func TestFinishedOpIsGarbage(t *testing.T) {
	m := New(gen.ErdosRenyi(64, 128, 31))
	defer m.Close()
	submit := func() weak.Pointer[graph.Edge] {
		es := []graph.Edge{{U: 1, V: 40}, {U: 2, V: 41}, {U: 3, V: 42}}
		insertAsync(m, es).Wait()
		return weak.Make(&es[0])
	}
	wp := submit()
	for deadline := time.Now().Add(time.Second); wp.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a finished op's edge slice is still reachable 1 s after its waiter returned")
		}
		runtime.GC()
	}
}

// TestWriteFlightAllocs pins what one coalesced write flight allocates, the
// way server's BenchmarkHotPathAllocs pins reads: 8 single-edge ops queued
// behind a parked applier, so the flight is exactly one 8-edge engine batch
// whose vertices all move (a delta publication), inserting and removing in
// turn. The 8 futures are the caller's, recycled from flight to flight as a
// kcored connection recycles its write slots. ParallelOrder, one worker.
func TestWriteFlightAllocs(t *testing.T) {
	// Eight disjoint paths a–b–c: closing a path into a triangle lifts its
	// three vertices from core 1 to core 2, reopening it drops them again.
	var base, closing []graph.Edge
	for i := int32(0); i < 8; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		base = append(base, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c})
		closing = append(closing, graph.Edge{U: a, V: c})
	}
	// One full page: a short last page is never recycled.
	m := New(graph.MustFromEdges(snapshot.PageSize, base))
	defer m.Close()

	entered, gate := make(chan struct{}), make(chan struct{})
	park := func() { entered <- struct{}{}; <-gate }
	pend := make([]Pending, len(closing))
	flight := func(remove bool) {
		m.pipe.submit(new(Pending), nil, nil, park)
		<-entered // the applier's drain holds the barrier alone; the next one takes all 8
		for i := range closing {
			if remove {
				m.Submit(&pend[i], closing[i:i+1], nil)
			} else {
				m.Submit(&pend[i], nil, closing[i:i+1])
			}
		}
		gate <- struct{}{}
		for i := range pend {
			if res := pend[i].Wait(); res.Coalesced != len(closing) || res.Applied != len(closing) || res.ChangedVertices != 3*len(closing) {
				t.Fatalf("flight was not one all-moving 8-edge batch: %+v", res)
			}
		}
	}
	before := m.ServingStats()
	perRun := testing.AllocsPerRun(50, func() {
		flight(false)
		flight(true)
	})
	after := m.ServingStats()
	if d, b := after.DeltaPublishes-before.DeltaPublishes, after.Batches-before.Batches; d != b || d != 2*51 {
		t.Fatalf("%d delta publications in %d batches, want 102 in 102", d, b)
	}
	// Per flight: the barrier's Pending 1 (the 8 writes reuse their
	// futures, and each completes without a channel); the result's
	// VPlusSizes 1; the published View 1. Its page table, cloned page and
	// histogram are the ones the flight before retired, recycled: nothing
	// here escapes a snapshot (ServingStats reads the scalar head).
	const perFlight = 3
	if got := perRun / 2; got > perFlight {
		t.Fatalf("%.1f allocations per 8-op write flight, want at most %d", got, perFlight)
	}
}
