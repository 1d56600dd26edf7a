package kcore

import (
	"sync"
	"time"
)

// EpochWatermark tracks the highest snapshot epoch a replica has applied
// and lets readers block until it reaches a target — the follower half of
// the read-your-writes handshake (the leader returns a write's epoch, the
// follower's CORE.WAIT parks on the watermark until the replicated op
// stream has carried the replica at least that far).
//
// Advance is monotonic and is what the replication apply loop calls;
// Reset may move the watermark backwards and is reserved for the end of a
// replication session: the follower resets to 0, since the next leader —
// possibly a restarted one whose epoch sequence starts over — is applied
// only once its snapshot is loaded. All methods are safe for concurrent
// use.
type EpochWatermark struct {
	mu    sync.Mutex
	epoch uint64
	ch    chan struct{} // closed and replaced on every watermark move
}

// NewEpochWatermark returns a watermark at epoch 0.
func NewEpochWatermark() *EpochWatermark {
	return &EpochWatermark{ch: make(chan struct{})}
}

// Epoch returns the current watermark.
func (w *EpochWatermark) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Advance moves the watermark up to e; calls with e at or below the
// current watermark are no-ops, so out-of-order duplicate markers cannot
// regress it.
func (w *EpochWatermark) Advance(e uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e <= w.epoch {
		return
	}
	w.epoch = e
	close(w.ch)
	w.ch = make(chan struct{})
}

// Reset forces the watermark to e, regressions included, and wakes every
// waiter so it re-evaluates against the new value: a waiter whose target
// the reset put out of reach waits for the next Advance (or its timeout)
// instead of passing on the previous epoch sequence.
func (w *EpochWatermark) Reset(e uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.epoch = e
	close(w.ch)
	w.ch = make(chan struct{})
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
		cur, ch := w.epoch, w.ch
		w.mu.Unlock()
		if cur >= target {
			return cur, true
		}
		select {
		case <-ch:
		case <-deadline:
			return cur, false
		case <-cancel:
			return cur, false
		}
	}
}
