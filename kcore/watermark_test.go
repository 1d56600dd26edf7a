package kcore

import (
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
)

// TestEpochWatermarkSet: set moves the watermark to any epoch, below the
// current one too (a Reload at a lower epoch), and with no waiter parked
// a move costs no allocation — every publication makes one.
func TestEpochWatermarkSet(t *testing.T) {
	var w epochWatermark
	epoch := func() uint64 { e, _ := w.wait(0, 0, nil); return e }
	if got := epoch(); got != 0 {
		t.Fatalf("fresh watermark epoch = %d, want 0", got)
	}
	w.set(5)
	w.set(3)
	if got := epoch(); got != 3 {
		t.Fatalf("after set(5), set(3): epoch = %d, want 3", got)
	}
	// A waiter whose target the lower epoch put out of reach keeps
	// waiting for a later set.
	done := make(chan uint64)
	go func() {
		e, _ := w.wait(5, 5*time.Second, nil)
		done <- e
	}()
	time.Sleep(10 * time.Millisecond)
	w.set(4)
	select {
	case e := <-done:
		t.Fatalf("Wait(5) returned at epoch %d", e)
	case <-time.After(20 * time.Millisecond):
	}
	w.set(5)
	if e := <-done; e != 5 {
		t.Fatalf("Wait(5) returned at epoch %d, want 5", e)
	}
	e := epoch()
	if allocs := testing.AllocsPerRun(100, func() { e++; w.set(e) }); allocs != 0 {
		t.Fatalf("set with no waiter allocates %v times, want 0", allocs)
	}
}

func TestEpochWatermarkWait(t *testing.T) {
	var w epochWatermark
	w.set(10)

	// Already satisfied: returns immediately.
	if got, ok := w.wait(10, time.Second, nil); !ok || got != 10 {
		t.Fatalf("Wait(10) = (%d, %v), want (10, true)", got, ok)
	}

	// Not yet satisfied: a concurrent set releases the waiter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, ok := w.wait(15, 5*time.Second, nil); !ok || got < 15 {
			t.Errorf("Wait(15) = (%d, %v), want reached", got, ok)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	w.set(12)
	w.set(16)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by set(16)")
	}

	// Timeout: target never reached.
	if _, ok := w.wait(100, 20*time.Millisecond, nil); ok {
		t.Fatal("Wait(100) reported reached without a set")
	}

	// Cancel: closed channel releases the waiter as not-reached.
	cancel := make(chan struct{})
	close(cancel)
	if _, ok := w.wait(100, time.Minute, cancel); ok {
		t.Fatal("Wait(100) with closed cancel reported reached")
	}
}

// TestEpochWatermarkConcurrent: one writer, as the engine is, sets epochs
// 1 to 1000 while waiters park on the last; every waiter is released.
func TestEpochWatermarkConcurrent(t *testing.T) {
	var w epochWatermark
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, ok := w.wait(1000, 10*time.Second, nil); !ok {
				t.Errorf("Wait(1000) timed out at %d", got)
			}
		}()
	}
	for e := uint64(1); e <= 1000; e++ {
		w.set(e)
	}
	wg.Wait()
	if got, _ := w.wait(0, 0, nil); got != 1000 {
		t.Fatalf("final epoch = %d, want 1000", got)
	}
}

// epochRecordingLog records the op stream in call order, each call with
// the maintainer's epoch at that moment — what a log stamping records
// with Epoch()+1 sees.
type epochRecordingLog struct {
	m      *Maintainer // set after New; read from the applier
	mu     sync.Mutex
	events []epochLogEvent
}

type epochLogEvent struct {
	kind  string // "batch"
	epoch uint64 // m.Epoch() at the call
}

func (l *epochRecordingLog) record(kind string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, epochLogEvent{kind: kind, epoch: l.m.Epoch()})
}

func (l *epochRecordingLog) AppendBatch(removes, inserts []graph.Edge) { l.record("batch") }

func (l *epochRecordingLog) Commit() {}

func (l *epochRecordingLog) snapshot() []epochLogEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]epochLogEvent(nil), l.events...)
}

// assertOnePublicationPerCall checks the OpLog contract on events
// recorded from epoch start to final: each call comes at the epoch the
// previous call's publication produced, so exactly one publication, at
// +1, follows each call, and the last one is the maintainer's final
// epoch.
func assertOnePublicationPerCall(t *testing.T, events []epochLogEvent, start, final uint64) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no OpLog calls recorded")
	}
	for i, ev := range events {
		if want := start + uint64(i); ev.epoch != want {
			t.Fatalf("call %d (%s) at epoch %d, want %d: not one publication per call", i, ev.kind, ev.epoch, want)
		}
	}
	if want := start + uint64(len(events)); final != want {
		t.Fatalf("final epoch %d after %d calls from epoch %d, want %d", final, len(events), start, want)
	}
}

// TestEpochMarkersFollowPublications drives a maintainer with an
// epoch-recording OpLog attached and checks the contract replication and
// recovery rely on: each call describes exactly the next publication —
// each batch, a growing one included, and each AddVertices calls once
// and publishes once, at +1 — and a Submit naming only out-of-range ids
// neither logs nor moves the epoch.
func TestEpochMarkersFollowPublications(t *testing.T) {
	lg := &epochRecordingLog{}
	g := gen.ErdosRenyi(200, 600, 7)
	m := New(g, WithOpLog(lg), WithMaxVertices(1000))
	defer m.Close()
	lg.m = m
	start := m.Epoch()

	m.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 250, V: 5}}) // implicit grow
	m.RemoveEdges([]graph.Edge{{U: 1, V: 2}})
	m.AddVertices(50)
	m.InsertEdges([]graph.Edge{{U: 260, V: 261}})
	final := m.Flush()
	assertOnePublicationPerCall(t, lg.snapshot(), start, final)

	// Beyond the ceiling, negative, or a removal at an unseen vertex: the
	// universe scan drops every op, so the batch is empty.
	var pd Pending
	m.Submit(&pd, []graph.Edge{{U: 5, V: 900}, {U: -1, V: 2}}, []graph.Edge{{U: 1, V: 5000}, {U: -3, V: 4}})
	pd.Wait()
	if got := m.Flush(); got != final {
		t.Fatalf("an out-of-range Submit moved the epoch %d -> %d", final, got)
	}
	if n := len(lg.snapshot()); n != 4 {
		t.Fatalf("an out-of-range Submit logged: %d calls, want 4", n)
	}
}

// TestEpochMarkersAfterClose: the batch Close drains keeps the contract —
// one log call, then one publication at +1 — and after Close nothing
// logs or publishes: an update panics before it reaches the log.
func TestEpochMarkersAfterClose(t *testing.T) {
	lg := &epochRecordingLog{}
	m := New(graph.New(10), WithOpLog(lg))
	lg.m = m
	start := m.Epoch()

	m.InsertEdges([]graph.Edge{{U: 0, V: 1}})
	m.AddVertices(2)
	var pd Pending
	m.Submit(&pd, []graph.Edge{{U: 0, V: 1}}, nil)
	m.Close()
	pd.Wait()
	final := m.Epoch()
	assertOnePublicationPerCall(t, lg.snapshot(), start, final)

	func() {
		defer func() { recover() }()
		m.Submit(new(Pending), nil, []graph.Edge{{U: 3, V: 4}})
	}()
	if n, e := len(lg.snapshot()), m.Epoch(); n != 3 || e != final {
		t.Fatalf("a Submit after Close: %d calls at epoch %d, want 3 at %d", n, e, final)
	}
}
