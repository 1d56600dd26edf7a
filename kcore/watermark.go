package kcore

import (
	"sync"
	"time"
)

// epochWatermark is the epoch of a Maintainer's current snapshot, which
// readers block on until it reaches a target — the waiting half of
// read-your-writes (Maintainer.WaitEpoch). The engine is its only writer:
// load and publishAfter set it to the epoch they installed, which for a
// reload may lie below the current one. A set wakes only the waiters
// already parked, each of which re-checks its target against the new
// epoch, and allocates nothing when none is. The zero value is a
// watermark at epoch 0, ready to use. All methods are safe for concurrent
// use.
type epochWatermark struct {
	mu    sync.Mutex
	epoch uint64
	ch    chan struct{} // closed at the next set; nil while no waiter parks
}

// set moves the watermark to e and wakes every parked waiter.
func (w *epochWatermark) set(e uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.epoch = e
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
}

// wait blocks until the watermark reaches target, the timeout elapses,
// or cancel is closed. It returns the watermark observed last and
// whether the target was reached. A zero timeout means wait only as
// long as cancel allows; a nil cancel never fires.
func (w *epochWatermark) wait(target uint64, timeout time.Duration, cancel <-chan struct{}) (uint64, bool) {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		w.mu.Lock()
		cur := w.epoch
		if cur >= target {
			w.mu.Unlock()
			return cur, true
		}
		if w.ch == nil {
			w.ch = make(chan struct{})
		}
		ch := w.ch
		w.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return cur, false
		case <-cancel:
			return cur, false
		}
	}
}
