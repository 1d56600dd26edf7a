package pcore

import (
	"repro/internal/core"
	"repro/internal/spin"
)

// insertEdge inserts one edge and restores the maintenance invariants,
// locking only the traversed vertices in V+ (Algorithm 7). It returns |V+|,
// or -1 if the edge changed nothing; V* is appended to p.changed.
func (p *worker) insertEdge(u, v int32) int32 {
	st := p.st
	if u == v {
		return -1
	}
	// Lock both endpoints together (line 1); with both held their k-order
	// is frozen, so orienting the edge by one comparison replaces the
	// paper's unlock-and-retry loop (line 2).
	spin.LockPair(&st.Locks[u], &st.Locks[v])
	if st.Before(v, u) {
		u, v = v, u
	}
	if traceFn != nil {
		traceFn("p=%p origin (%d->%d) locked", p, u, v)
	}
	if !st.G.AddEdge(u, v) {
		// Duplicate (possibly inserted concurrently by another worker
		// earlier in the batch): nothing to do.
		st.Locks[u].Unlock()
		st.Locks[v].Unlock()
		return -1
	}
	k := st.Core[u].Load()
	st.Dout[u].Add(1)
	st.Mcd[u].Store(core.McdEmpty)
	st.Mcd[v].Store(core.McdEmpty)
	st.Locks[v].Unlock() // line 5
	if st.Dout[u].Load() <= k {
		st.Locks[u].Unlock() // line 6
		return 0
	}

	p.k = k
	p.q.reset(k)
	p.resetScratch()

	w := u
	for {
		// d*in(w) = |{x ∈ pre(w) : x ∈ V*}| (line 9). V* members are
		// locked by us, w is locked by us: the comparison is stable.
		din := int32(0)
		for _, x := range st.G.Adj(w) {
			if p.mk.has(x, mStar) && st.Before(x, w) {
				din++
			}
		}
		if traceFn != nil {
			traceFn("p=%p process %d din=%d dout=%d k=%d", p, w, din, st.Dout[w].Load(), k)
		}
		switch {
		case din+st.Dout[w].Load() > k:
			p.forward(w, din) // line 10; w stays locked
		case din > 0:
			p.backward(w, din) // line 11; w stays locked (member of V+)
		default:
			st.Locks[w].Unlock() // line 11: w ∉ V+
		}
		next, ok := p.q.dequeue() // line 12: returns w locked
		if !ok {
			break
		}
		w = next
	}
	p.promote()
	return int32(len(p.vstar) + len(p.confirmed)) // |V+|
}

// forward adds the locked vertex w, with candidate in-degree din, to V* and
// schedules its same-core successors (Algorithm 7 lines 18-21). Successors
// are examined without locking them — only V+ is locked.
func (p *worker) forward(w, din int32) {
	st := p.st
	p.vstar = append(p.vstar, w)
	p.mk.set(w, mStar)
	p.mk.setDin(w, din)
	if traceFn != nil {
		traceFn("p=%p forward %d (k=%d)", p, w, p.k)
	}
	for _, x := range st.G.Adj(w) {
		if st.Core[x].Load() == p.k && !p.mk.has(x, mQueued|mStar|mDone) && st.Before(w, x) {
			if traceFn != nil {
				traceFn("p=%p   enqueue %d", p, x)
			}
			p.q.enqueue(x)
		}
	}
}

// backward confirms the locked w, with candidate in-degree din, as a
// non-candidate and evicts every V* member whose potential degree fell to k,
// moving evicted vertices after the advancing anchor `pre` inside O_k
// (Algorithm 7 lines 22-31). All touched vertices are members of V+ and
// therefore already locked by this worker.
func (p *worker) backward(w, din int32) {
	st := p.st
	list := st.List(p.k)
	p.mk.set(w, mDone)
	p.confirmed = append(p.confirmed, w)
	if traceFn != nil {
		traceFn("p=%p backward %d (k=%d)", p, w, p.k)
	}
	pre := w
	p.rq = p.rq[:0]
	p.doPre(w)
	st.Dout[w].Add(din)
	for head := 0; head < len(p.rq); head++ {
		u := p.rq[head]
		p.mk.unset(u, mStar)
		p.mk.set(u, mDone)
		p.doPre(u)
		p.doPost(u)
		if traceFn != nil {
			traceFn("p=%p   evict %d after %d", p, u, pre)
		}
		st.BeginOrderChange(u)
		list.Delete(u)
		list.InsertAfter(pre, u)
		st.EndOrderChange(u)
		p.recordMove(u, p.k)
		p.m.Evictions++
		pre = u
		st.Dout[u].Add(p.mk.din(u))
	}
}

// doPre: u is confirmed outside V*; its V* predecessors lose one remaining
// out-degree (Algorithm 7 lines 32-35).
func (p *worker) doPre(u int32) {
	st := p.st
	for _, x := range st.G.Adj(u) {
		if p.mk.has(x, mStar) && st.Before(x, u) {
			st.Dout[x].Add(-1)
			p.evictIfSpent(x)
		}
	}
}

// evictIfSpent schedules the V* member x for eviction, once, when its
// potential degree d*in + d⁺out no longer exceeds k. An evicted vertex
// leaves V* for good, so mInR never needs clearing within the operation.
func (p *worker) evictIfSpent(x int32) {
	st := p.st
	if p.mk.din(x)+st.Dout[x].Load() <= p.k && !p.mk.has(x, mInR) {
		p.mk.set(x, mInR)
		p.rq = append(p.rq, x)
	}
}

// doPost: u left V*; its V* successors lose one candidate in-degree
// (Algorithm 7 lines 36-40).
func (p *worker) doPost(u int32) {
	st := p.st
	for _, x := range st.G.Adj(u) {
		if !p.mk.has(x, mStar) {
			continue
		}
		if din := p.mk.din(x); din > 0 && st.Before(u, x) {
			p.mk.setDin(x, din-1)
			p.evictIfSpent(x)
		}
	}
}

// promote commits the surviving candidates (Algorithm 7 lines 14-17): each
// moves to the head of O_{k+1} preserving V*'s relative order (anchor
// chaining), with core number and position published atomically under the
// order-change status. Every lock this worker still holds is released.
func (p *worker) promote() {
	st := p.st
	from := st.List(p.k)
	to := st.List(p.k + 1)
	anchor := int32(-1) // none yet: the first survivor goes to the head
	for _, w := range p.vstar {
		if !p.mk.has(w, mStar) {
			continue // evicted by backward
		}
		st.Mcd[w].Store(core.McdEmpty)
		for _, x := range st.G.Adj(w) {
			st.Mcd[x].Store(core.McdEmpty)
		}
		if traceFn != nil {
			traceFn("p=%p commit %d -> core %d (head of O_%d)", p, w, p.k+1, p.k+1)
		}
		// The core store and the list move publish as one unit (see
		// core.State.CommitMu): a worker that observes the new core
		// number linearizes after this promotion, and the head placement
		// is only valid if w is already in the list when that happens.
		st.CommitMu.Lock()
		st.BeginOrderChange(w)
		st.Core[w].Store(p.k + 1)
		from.Delete(w)
		if anchor < 0 {
			to.InsertAtHead(w)
		} else {
			to.InsertAfter(anchor, w)
		}
		anchor = w
		st.EndOrderChange(w)
		st.CommitMu.Unlock()
		p.recordMove(w, p.k)
		p.changed = append(p.changed, w)
		p.m.Promotions++
	}
	// Unlock all of V+ (line 17): V* members, evicted ones, and the
	// confirmed non-candidates that triggered a Backward.
	for _, w := range p.vstar {
		st.Locks[w].Unlock()
	}
	for _, w := range p.confirmed {
		st.Locks[w].Unlock()
	}
}
