package pcore

import (
	"repro/internal/core"
	"repro/internal/spin"
)

// Removal (Algorithm 8, RemoveEdge_p). Only vertices entering V* are kept
// locked; every other examined neighbor is locked conditionally and released
// immediately, and blocking cycles are impossible because a conditional lock
// aborts as soon as the target's core number leaves the removal level
// (§4.2.2).

// removeEdge removes one edge and restores the maintenance invariants. It
// returns |V*|, or -1 if the edge changed nothing; V* is appended to
// p.changed.
func (p *worker) removeEdge(u, v int32) int32 {
	st := p.st
	if u == v {
		return -1
	}
	spin.LockPair(&st.Locks[u], &st.Locks[v]) // line 1
	if !st.G.HasEdge(u, v) {
		// Already removed (duplicate within the batch).
		st.Locks[u].Unlock()
		st.Locks[v].Unlock()
		return -1
	}
	cu, cv := st.Core[u].Load(), st.Core[v].Load()
	k := cu
	if cv < k {
		k = cv
	}
	p.k = k
	p.resetScratch()

	// Line 3: make sure both endpoints have a concrete mcd while the edge
	// still exists, then account the removal.
	p.checkMCD(u, -1)
	p.checkMCD(v, -1)
	if st.Before(u, v) {
		st.Dout[u].Add(-1)
	} else {
		st.Dout[v].Add(-1)
	}
	p.recordRemoval(u, v)
	st.G.RemoveEdge(u, v) // line 4

	droppedU, droppedV := false, false
	if cv >= cu { // the edge was counted in u's mcd (lines 5-6)
		droppedU = p.doMCD(u)
	}
	if cu >= cv {
		droppedV = p.doMCD(v)
	}
	if !droppedU {
		st.Locks[u].Unlock() // line 7
	}
	if !droppedV {
		st.Locks[v].Unlock()
	}

	// Lines 8-16: propagate. Dequeued vertices are locked, core k-1,
	// t = 2 (dropping from k).
	propagating := core.DropStatus(k, 1)
	for head := 0; head < len(p.rq); head++ {
		w := p.rq[head]
		p.mk.Reset() // A_p (core.MSeen): per vertex, persists across its redo rounds (line 16)
		for {
			st.T[w].Add(-1) // line 10: 2 -> 1
			for _, x := range st.G.Adj(w) {
				if st.Core[x].Load() != k || p.mk.Has(x, core.MSeen) {
					continue
				}
				// Conditional lock (line 12): give up as soon
				// as x stops being a level-k vertex — that is
				// the deadlock-avoidance rule.
				if st.Locks[x].LockIf(func() bool { return st.Core[x].Load() == k }) {
					p.checkMCD(x, w) // line 13
					if !p.doMCD(x) {
						st.Locks[x].Unlock() // line 25
					}
					p.mk.Set(x, core.MSeen) // line 14
				} else {
					p.m.LockAborts++
				}
			}
			// line 15: 1 -> idle, which also sheds the level tag.
			if st.T[w].CompareAndSwap(propagating, 0) {
				break
			}
			// line 16: a neighbor's CheckMCD CASed t from 1 to 3
			// while recounting us — 3 -> 2 and redo with A_p intact.
			st.T[w].Add(-1)
			p.m.RemovalRedos++
		}
	}
	// Propagation has quiesced: release the dropped set (line 18). The OM
	// relocations happened at drop time (doMCD), atomically with each core
	// store; d⁺out is left to the batch-end repair.
	for _, w := range p.vstar {
		st.Locks[w].Unlock()
	}
	p.changed = append(p.changed, p.vstar...)
	return int32(len(p.vstar))
}

// checkMCD materializes x's mcd if empty (Algorithm 8, CheckMCD). x is
// locked by this worker; neighbors are examined without locks. caller is the
// vertex whose propagation loop invoked us (or -1 at the endpoints): the
// redo CAS is skipped for it because it is about to deliver its own
// decrement (line 32).
func (p *worker) checkMCD(x, caller int32) {
	st := p.st
	if st.Mcd[x].Load() != core.McdEmpty {
		return
	}
	cx := st.Core[x].Load()
	mcd := int32(0)
	for _, v := range st.G.Adj(x) {
		cvv := st.Core[v].Load()
		switch {
		case cvv >= cx:
			mcd++
		case cvv == cx-1 && core.DroppingFrom(st.T[v].Load(), cx):
			// v is mid-drop from x's level and has not delivered
			// its decrement to us yet: count it, and force its
			// propagation to run again so the decrement arrives
			// even if v's visit raced past us (lines 29-33). The
			// level tag matters: a vertex leaving level cx-1
			// publishes t before its lowered core number, reads
			// "core cx-1, in flight" for a moment, and must not be
			// counted here (DESIGN.md, "The t status").
			mcd++
			if v != caller {
				st.T[v].CompareAndSwap(core.DropStatus(cx, 1), core.DropStatus(cx, 3))
			}
			if !core.DroppingFrom(st.T[v].Load(), cx) {
				mcd-- // v finished while we counted
			}
		}
	}
	st.Mcd[x].Store(mcd)
}

// doMCD accounts one lost qualifying neighbor of the locked vertex x and
// drops x when its mcd sinks below its core number (Algorithm 8, DoMCD).
// On a drop x joins V* and the propagation queue and stays locked. Reports
// whether x dropped; the caller releases the lock otherwise.
func (p *worker) doMCD(x int32) bool {
	st := p.st
	mcd := st.Mcd[x].Add(-1)
	cx := st.Core[x].Load()
	if mcd >= cx {
		return false
	}
	if cx != p.k {
		panic("pcore: mcd fell below core away from removal level")
	}
	// Line 22: ⟨core ← k-1; t ← 2⟩ published t-first so no observer sees
	// a dropped-but-untracked vertex. core.State.Relocate publishes the
	// core number and the move to the tail of O_{k-1} as one unit: the
	// drop cascade order is the peeling order, and a move deferred to
	// commit let a later observer — another removal's mcd count or
	// conditional lock — reach the tail first, inverting it.
	st.T[x].Store(core.DropStatus(p.k, 2))
	if st.Relocate(x, p.k, p.k-1, core.Tail) {
		p.m.CommitWaits++
	}
	st.Mcd[x].Store(core.McdEmpty) // line 23
	p.vstar = append(p.vstar, x)   // line 24
	p.rq = append(p.rq, x)
	p.recordMove(x, p.k)
	p.m.Drops++
	return true
}
