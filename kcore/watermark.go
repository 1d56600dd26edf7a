package kcore

import (
	"sync"
	"time"
)

// EpochWatermark tracks a snapshot epoch and lets readers block until it
// reaches a target — the waiting half of read-your-writes. A Maintainer
// advances one at every publication (Maintainer.WaitEpoch); a follower
// advances one at every leader publication it applies from the
// replicated record stream, to the epoch the record carries, so its
// CORE.WAIT parks until it has applied at least as far as the leader had
// when it acked the write.
//
// Advance is monotonic; Reset may move the watermark backwards and is
// reserved for the end of a replication session: the follower resets to
// 0, since the next leader — possibly a restarted one whose epoch
// sequence starts over — is applied only once its snapshot is loaded.
// The zero value is a watermark at epoch 0, ready to use. A move wakes
// only waiters already parked, and allocates nothing when none is. All
// methods are safe for concurrent use.
type EpochWatermark struct {
	mu    sync.Mutex
	epoch uint64
	ch    chan struct{} // closed at the next move; nil while no waiter parks
}

// Epoch returns the current watermark.
func (w *EpochWatermark) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Advance moves the watermark up to e; calls with e at or below the
// current watermark are no-ops, so a stale epoch cannot regress it.
func (w *EpochWatermark) Advance(e uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e > w.epoch {
		w.moveLocked(e)
	}
}

// Reset forces the watermark to e, regressions included, and wakes every
// waiter so it re-evaluates against the new value: a waiter whose target
// the reset put out of reach waits for the next Advance (or its timeout)
// instead of passing on the previous epoch sequence.
func (w *EpochWatermark) Reset(e uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.moveLocked(e)
}

func (w *EpochWatermark) moveLocked(e uint64) {
	w.epoch = e
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
}

// Wait blocks until the watermark reaches target, the timeout elapses,
// or cancel is closed. It returns the watermark observed last and
// whether the target was reached. A zero timeout means wait only as
// long as cancel allows; a nil cancel never fires.
func (w *EpochWatermark) Wait(target uint64, timeout time.Duration, cancel <-chan struct{}) (uint64, bool) {
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
