package kcore

import (
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
)

func TestEpochWatermarkAdvanceMonotonic(t *testing.T) {
	var w EpochWatermark
	if got := w.Epoch(); got != 0 {
		t.Fatalf("fresh watermark epoch = %d, want 0", got)
	}
	w.Advance(5)
	w.Advance(3) // stale marker must not regress
	if got := w.Epoch(); got != 5 {
		t.Fatalf("after Advance(5), Advance(3): epoch = %d, want 5", got)
	}
	w.Reset(2) // re-bootstrap may regress
	if got := w.Epoch(); got != 2 {
		t.Fatalf("after Reset(2): epoch = %d, want 2", got)
	}
	// Every publication advances the maintainer's watermark: with no
	// waiter parked, a move must cost no allocation.
	e := w.Epoch()
	if allocs := testing.AllocsPerRun(100, func() { e++; w.Advance(e) }); allocs != 0 {
		t.Fatalf("Advance with no waiter allocates %v times, want 0", allocs)
	}
}

func TestEpochWatermarkWait(t *testing.T) {
	var w EpochWatermark
	w.Advance(10)

	// Already satisfied: returns immediately.
	if got, ok := w.Wait(10, time.Second, nil); !ok || got != 10 {
		t.Fatalf("Wait(10) = (%d, %v), want (10, true)", got, ok)
	}

	// Not yet satisfied: a concurrent Advance releases the waiter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, ok := w.Wait(15, 5*time.Second, nil); !ok || got < 15 {
			t.Errorf("Wait(15) = (%d, %v), want reached", got, ok)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	w.Advance(12)
	w.Advance(16)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Advance(16)")
	}

	// Timeout: target never reached.
	if _, ok := w.Wait(100, 20*time.Millisecond, nil); ok {
		t.Fatal("Wait(100) reported reached without an Advance")
	}

	// Cancel: closed channel releases the waiter as not-reached.
	cancel := make(chan struct{})
	close(cancel)
	if _, ok := w.Wait(100, time.Minute, cancel); ok {
		t.Fatal("Wait(100) with closed cancel reported reached")
	}
}

func TestEpochWatermarkConcurrent(t *testing.T) {
	var w EpochWatermark
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for e := uint64(1); e <= 1000; e++ {
				w.Advance(e)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, ok := w.Wait(1000, 10*time.Second, nil); !ok {
				t.Errorf("Wait(1000) timed out at %d", got)
			}
		}()
	}
	wg.Wait()
	if got := w.Epoch(); got != 1000 {
		t.Fatalf("final epoch = %d, want 1000", got)
	}
}

// epochRecordingLog records the full op stream including epoch markers,
// in call order, mimicking what a replication tap sees.
type epochRecordingLog struct {
	mu     sync.Mutex
	events []epochLogEvent
}

type epochLogEvent struct {
	kind    string // "batch" | "grow" | "epoch"
	removes []graph.Edge
	inserts []graph.Edge
	n       int
	epoch   uint64
}

func (l *epochRecordingLog) AppendBatch(removes, inserts []graph.Edge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, epochLogEvent{
		kind:    "batch",
		removes: append([]graph.Edge(nil), removes...),
		inserts: append([]graph.Edge(nil), inserts...),
	})
}

func (l *epochRecordingLog) AppendGrow(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, epochLogEvent{kind: "grow", n: n})
}

func (l *epochRecordingLog) AppendEpoch(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, epochLogEvent{kind: "epoch", epoch: epoch})
}

// TestEpochMarkersFollowPublications drives a maintainer with an
// epoch-recording OpLog attached and checks the marker discipline replication relies
// on: every batch/grow event is followed by a marker before any other
// batch starts, each batch — a growing one included — and each
// AddVertices publishes exactly once, so the markers run consecutively
// from the epoch after New, and the final marker equals the maintainer's
// final epoch (so a follower applying the full stream ends exactly at the
// leader's epoch).
func TestEpochMarkersFollowPublications(t *testing.T) {
	lg := &epochRecordingLog{}
	g := gen.ErdosRenyi(200, 600, 7)
	m := New(g, WithOpLog(lg))
	defer m.Close()
	start := m.Epoch()

	m.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 250, V: 5}}) // implicit grow
	m.RemoveEdges([]graph.Edge{{U: 1, V: 2}})
	m.AddVertices(50)
	m.InsertEdges([]graph.Edge{{U: 260, V: 261}})
	finalEpoch := m.Flush()

	lg.mu.Lock()
	events := append([]epochLogEvent(nil), lg.events...)
	lg.mu.Unlock()

	last := start
	sawOp := false // an un-marked batch/grow is pending
	for i, ev := range events {
		switch ev.kind {
		case "batch", "grow":
			if sawOp {
				t.Fatalf("event %d (%s) before the previous op's epoch marker", i, ev.kind)
			}
			sawOp = true
		case "epoch":
			if ev.epoch != last+1 {
				t.Fatalf("event %d: marker %d, want %d (start %d)", i, ev.epoch, last+1, start)
			}
			last = ev.epoch
			sawOp = false
		}
	}
	if sawOp {
		t.Fatal("trailing batch/grow without an epoch marker")
	}
	if last != finalEpoch {
		t.Fatalf("last marker %d != final epoch %d", last, finalEpoch)
	}
}

// TestEpochMarkersAfterClose pins the post-Close synchronous path: it
// must keep emitting markers so a follower tap on a closed-but-usable
// maintainer stays consistent.
func TestEpochMarkersAfterClose(t *testing.T) {
	lg := &epochRecordingLog{}
	m := New(graph.New(10), WithOpLog(lg))
	m.Close()

	m.InsertEdges([]graph.Edge{{U: 0, V: 1}})
	epoch := m.Epoch()

	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.events) == 0 {
		t.Fatal("no events recorded")
	}
	lastEv := lg.events[len(lg.events)-1]
	if lastEv.kind != "epoch" || lastEv.epoch != epoch {
		t.Fatalf("last event = %+v, want epoch marker at %d", lastEv, epoch)
	}
}
