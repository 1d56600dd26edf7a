// Package spin provides the CAS-based busy-wait locks used by the
// Parallel-Order core maintenance algorithms (paper §3.5).
//
// The paper synchronizes workers with per-vertex locks implemented by the
// compare-and-swap primitive. Three flavors are needed:
//
//   - lock / tryLock / Unlock: a plain test-and-set spin lock.
//   - LockIf: the conditional lock of Algorithm 4 — acquire only while a
//     caller-supplied condition holds, and abort (instead of blocking
//     forever) once the condition turns false.
//   - LockPair: acquire two locks "together at the same time" without
//     hold-and-wait, used for the endpoints of an inserted or removed edge.
//
// Locks are word-sized and live in flat arrays (one per vertex), so a Mutex
// per vertex would waste memory and the paper's conditional-acquire protocol
// could not be expressed with sync.Mutex anyway.
package spin

import (
	"runtime"
	"sync/atomic"
)

// Lock is a word-sized CAS spin lock. The zero value is unlocked.
type Lock struct {
	v atomic.Uint32
}

// lock acquires l, busy-waiting until it is free. Between failed attempts it
// yields the processor so single-core test environments make progress.
func (l *Lock) lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// tryLock attempts to acquire l without waiting and reports success.
func (l *Lock) tryLock() bool {
	return l.v.CompareAndSwap(0, 1)
}

// Unlock releases l. Calling Unlock on an unlocked Lock is a programming
// error and panics, matching sync.Mutex behavior.
func (l *Lock) Unlock() {
	if !l.v.CompareAndSwap(1, 0) {
		panic("spin: unlock of unlocked lock")
	}
}

// Locked reports whether l is currently held. It is inherently racy and is
// intended for assertions and tests only.
func (l *Lock) Locked() bool {
	return l.v.Load() == 1
}

// LockIf implements the conditional lock of Algorithm 4: it acquires l only
// while cond() holds. It returns true when the lock was acquired with cond()
// still true afterwards; it returns false — without holding the lock — as
// soon as cond() is observed false. Unlike lock, LockIf never busy-waits on
// a lock whose condition has been invalidated, which is the mechanism that
// breaks blocking cycles in parallel edge removal (paper §4.2.2).
func (l *Lock) LockIf(cond func() bool) bool {
	for cond() {
		if l.v.CompareAndSwap(0, 1) {
			if cond() {
				return true
			}
			l.v.Store(0)
			return false
		}
		runtime.Gosched()
	}
	return false
}

// LockPair acquires a and b together: either both are held on return or the
// acquisition round is retried from scratch. a and b must be distinct.
// Acquiring the pair atomically (rather than one after the other) removes the
// classic two-worker deadlock on a shared edge (paper §4.1.2, §4.2.2).
func LockPair(a, b *Lock) {
	if a == b {
		panic("spin: LockPair with identical locks")
	}
	for {
		a.lock()
		if b.tryLock() {
			return
		}
		a.Unlock()
		runtime.Gosched()
	}
}
