package spin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockUnlock(t *testing.T) {
	var l Lock
	l.Lock()
	if !l.Locked() {
		t.Fatal("lock should be held")
	}
	l.Unlock()
	if l.Locked() {
		t.Fatal("lock should be free")
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l Lock
	l.Unlock()
}

func TestTryLock(t *testing.T) {
	var l Lock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock must succeed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock must fail")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock must succeed")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	var l Lock
	var counter int
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

func TestLockIfAcquiresWhileCondHolds(t *testing.T) {
	var l Lock
	cond := func() bool { return true }
	if !l.LockIf(cond) {
		t.Fatal("LockIf with true cond must acquire")
	}
	l.Unlock()
}

func TestLockIfRejectsFalseCond(t *testing.T) {
	var l Lock
	if l.LockIf(func() bool { return false }) {
		t.Fatal("LockIf with false cond must not acquire")
	}
	if l.Locked() {
		t.Fatal("lock must not be held after failed LockIf")
	}
}

// The condition flips to false after the CAS succeeds: LockIf must release
// and report failure (Algorithm 4 lines 3-4).
func TestLockIfRechecksAfterAcquire(t *testing.T) {
	var l Lock
	calls := 0
	cond := func() bool {
		calls++
		return calls == 1 // true before CAS, false after
	}
	if l.LockIf(cond) {
		t.Fatal("LockIf must fail when cond flips after acquisition")
	}
	if l.Locked() {
		t.Fatal("lock must be released when post-acquire cond check fails")
	}
}

// A worker blocked in LockIf on a held lock must return (not spin forever)
// once another worker invalidates the condition — the deadlock-avoidance
// property of parallel edge removal.
func TestLockIfUnblocksOnConditionChange(t *testing.T) {
	var l Lock
	var cond atomic.Bool
	cond.Store(true)
	l.Lock() // hold so the waiter spins

	done := make(chan bool, 1)
	go func() {
		done <- l.LockIf(cond.Load)
	}()

	time.Sleep(10 * time.Millisecond) // let the waiter spin
	cond.Store(false)
	select {
	case got := <-done:
		if got {
			t.Fatal("LockIf must fail once the condition is invalidated")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LockIf did not unblock after condition change")
	}
	l.Unlock()
}

func TestLockPairHoldsBoth(t *testing.T) {
	var a, b Lock
	LockPair(&a, &b)
	if !a.Locked() || !b.Locked() {
		t.Fatal("both locks must be held")
	}
	a.Unlock()
	b.Unlock()
}

func TestLockPairIdenticalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var a Lock
	LockPair(&a, &a)
}

// Two workers repeatedly locking the same pair in opposite argument order
// must never deadlock (the hold-and-wait cycle LockPair exists to prevent).
func TestLockPairNoDeadlockOppositeOrder(t *testing.T) {
	var a, b Lock
	const rounds = 500
	var wg sync.WaitGroup
	run := func(x, y *Lock) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			LockPair(x, y)
			x.Unlock()
			y.Unlock()
		}
	}
	wg.Add(2)
	go run(&a, &b)
	go run(&b, &a)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("LockPair deadlocked")
	}
}

func TestLockPairMutualExclusionCriticalSection(t *testing.T) {
	var a, b Lock
	var shared int
	const workers, rounds = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					LockPair(&a, &b)
				} else {
					LockPair(&b, &a)
				}
				shared++
				a.Unlock()
				b.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if shared != workers*rounds {
		t.Fatalf("shared = %d, want %d", shared, workers*rounds)
	}
}
