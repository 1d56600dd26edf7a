package kcore

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
)

// The update pipeline is the serving layer's write path: concurrent
// callers enqueue ops onto a channel-backed queue and a dedicated applier
// goroutine drains it, coalescing everything pending into mixed
// insert/remove batches (last op per canonical edge wins, so canceling
// insert/remove pairs annihilate), runs them through the engine, publishes
// a fresh read snapshot at quiescence, and completes the per-caller
// futures. Batches therefore still serialize — the engines require it —
// but callers no longer serialize on a mutex: a burst of W single-edge
// writers costs one engine round, not W.

const (
	// opQueueCap is the channel buffer: writers beyond it block until the
	// applier catches up (closed-loop backpressure).
	opQueueCap = 256
	// maxDrainOps bounds one coalesced drain so a continuous write storm
	// cannot starve snapshot publication indefinitely.
	maxDrainOps = 1024
)

type pipeline struct {
	ops    chan *Pending
	exited chan struct{} // closed when the applier has drained and returned

	// mu guards closed and makes enqueue-vs-Close safe: senders hold the
	// read side across the channel send, Close takes the write side before
	// closing ops, so no send can hit a closed channel.
	mu     sync.RWMutex
	closed bool

	// The counters ServingStats reports.
	queueDepth  atomic.Int64 // gauge: ops enqueued or being applied right now
	enqueued    atomic.Int64 // update ops accepted by the queue
	batches     atomic.Int64 // coalesced engine batches applied
	batchedOps  atomic.Int64 // caller ops those batches covered
	canceledOps atomic.Int64 // edge ops superseded by a later op within one drain
	flushes     atomic.Int64 // barrier ops executed (Flush, Check, AtQuiescence)
	rebuilds    atomic.Int64 // batches the engine finished with a rebuild (Contention.Rebuilds)

	pm *PipelineMetrics

	co coalescer // the applier's
}

func newPipeline(pm *PipelineMetrics) *pipeline {
	return &pipeline{
		ops:    make(chan *Pending, opQueueCap),
		exited: make(chan struct{}),
		pm:     pm,
	}
}

// Pending is one submitted op and the future of its result: the op is in
// the pipeline (in submission order), its result not yet claimed. An
// update op is one batch — removals, then insertions — and a barrier
// carries no edges and runs its fn. A caller that submits a run of
// Pendings before waiting on any lets the applier coalesce the whole run
// into shared engine batches — the mechanism the RESP server uses to turn
// one connection's pipelined write burst into one engine round.
//
// The future is the caller's: Submit fills it in, and once its Wait has
// returned the same Pending may be submitted again, so a caller that
// recycles its futures submits without allocating.
// Submitting a Pending whose previous op has not been waited panics, and so
// does submitting to a closed Maintainer. The op completes without a
// channel: done is a one-count WaitGroup the applier releases after
// writing res.
// Wait is idempotent, and any one goroutine may call it, not only the
// submitter; it is not safe for concurrent use, so hand a Pending to at
// most one waiter. The zero value is ready to submit.
type Pending struct {
	removes, inserts []graph.Edge
	fn               func()    // a barrier's, nil on an update: runs in the applier at quiescence
	enq              time.Time // submission time: coalesce wait and update latency count from here
	// done is released exactly once per submission, by finish, after it
	// has written res.
	done sync.WaitGroup

	p      *pipeline // nil until the first submission
	res    BatchResult
	waited bool
}

// Wait blocks until the op's coalesced batch has been applied and its
// snapshot published, then returns the shared BatchResult (idempotent
// after the first call). It drops the op's edges, so an idle recycled
// future does not keep the caller's slices reachable.
func (pd *Pending) Wait() BatchResult {
	if !pd.waited {
		pd.done.Wait()
		pd.waited = true
		pd.removes, pd.inserts = nil, nil
		if pd.fn == nil {
			pd.p.pm.Update.ObserveDuration(time.Since(pd.enq))
		}
	}
	return pd.res
}

// submit fills op in and enqueues it without waiting, returning op. The
// applier is the engine's only driver, so submit panics once the pipeline
// is closed.
func (p *pipeline) submit(op *Pending, removes, inserts []graph.Edge, fn func()) *Pending {
	if op.p != nil && !op.waited {
		panic("kcore: Pending submitted again before its Wait returned")
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		panic("kcore: Maintainer used after Close")
	}
	op.removes, op.inserts, op.fn, op.waited = removes, inserts, fn, false
	op.p, op.enq = p, time.Now()
	op.done.Add(1)
	p.queueDepth.Add(1)
	p.ops <- op
	// Incremented after the send: once a reader of the counter observes
	// the op it is guaranteed to be in the channel, in enqueue order.
	p.enqueued.Add(1)
	p.mu.RUnlock()
	return op
}

// close shuts the pipeline down. The applier finishes every op already
// enqueued before exiting; with wait set, close blocks until it has.
func (p *pipeline) close(wait bool) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.ops)
	}
	p.mu.Unlock()
	if wait {
		<-p.exited
	}
}

// run is the applier loop. It blocks for the next op, greedily drains
// whatever else is already queued, and processes the run. Ranging over the
// channel drains every buffered op after close before exiting.
func (p *pipeline) run(eng *engine) {
	defer close(p.exited)
	pending := make([]*Pending, 0, 64)
	for first := range p.ops {
		pending = append(pending[:0], first)
	drain:
		for len(pending) < maxDrainOps {
			select {
			case op, ok := <-p.ops:
				if !ok {
					break drain
				}
				pending = append(pending, op)
			default:
				break drain
			}
		}
		p.process(eng, pending)
		// A finished op belongs to its waiter alone: the reused backing
		// array must not keep it — and the caller's edge slice it points
		// to — reachable until a later drain overwrites the slot.
		clear(pending)
	}
}

// process splits the drained ops at barriers: each maximal run of update
// ops becomes one coalesced engine batch, and each barrier executes at the
// quiescent point its enqueue order put it at, so Flush keeps exact
// read-your-writes semantics.
func (p *pipeline) process(eng *engine, pending []*Pending) {
	for len(pending) > 0 {
		if b := pending[0]; b.fn != nil {
			b.fn()
			p.flushes.Add(1)
			p.finish(b, BatchResult{})
			pending = pending[1:]
			continue
		}
		j := 1
		for j < len(pending) && pending[j].fn == nil {
			j++
		}
		p.applySegment(eng, pending[:j])
		pending = pending[j:]
	}
}

// applySegment coalesces one run of update ops into one batch, applies
// it, and completes every future with the shared result.
func (p *pipeline) applySegment(eng *engine, seg []*Pending) {
	removes, inserts, canceled := p.co.coalesce(seg)
	// The segment's oldest op has waited longest; its queue time is the
	// batch's coalesce wait.
	p.pm.CoalesceWait.ObserveDuration(time.Since(seg[0].enq))
	res := p.apply(eng, removes, inserts)
	res.Coalesced = len(seg)
	p.batches.Add(1)
	p.batchedOps.Add(int64(len(seg)))
	p.canceledOps.Add(int64(canceled))
	for _, op := range seg {
		p.finish(op, res)
	}
}

// apply runs one batch at the quiescent point: it grows the vertex
// universe to cover any unseen insert endpoints (dropping malformed and
// guaranteed-absent ops; see engine.prepareBatch), logs and applies the
// mixed batch (removals, then insertions, so an edge named in both ends
// present), commits the log record, and publishes the post-batch
// snapshot. Duration covers the commit wait.
// A batch the scan leaves empty is neither logged, applied nor
// published, so OpLog calls and epochs stay one to one.
func (p *pipeline) apply(eng *engine, removes, inserts []graph.Edge) BatchResult {
	start := time.Now()
	removes, inserts = eng.prepareBatch(removes, inserts)
	res := &eng.res
	if len(removes) > 0 || len(inserts) > 0 {
		eng.logBatch(removes, inserts)
		if len(removes) > 0 {
			eng.impl.ApplyRemove(removes, res)
		}
		if len(inserts) > 0 {
			eng.impl.ApplyInsert(inserts, res)
		}
		p.rebuilds.Add(res.Contention.Rebuilds)
		// No epoch advances and no future completes before the commit.
		eng.commitLog()
		res.Duration = time.Since(start)
		p.pm.Apply.ObserveDuration(res.Duration)
		pubStart := time.Now()
		eng.publishAfter(res)
		p.pm.Publish.ObserveDuration(time.Since(pubStart))
	}
	// Callers must neither see nor pin the engine's scratch, nor the engine
	// their VPlusSizes.
	shared := *res
	shared.changed = nil
	*res = BatchResult{changed: res.changed[:0]}
	return shared
}

// finish completes op: the applier's last touch of it, since its waiter may
// return and drop the op the moment done is released.
func (p *pipeline) finish(op *Pending, res BatchResult) {
	p.queueDepth.Add(-1)
	op.res = res
	op.done.Done()
}

// coalescer is the applier's coalescing scratch: the last-op-per-edge map,
// the first-seen order and the two result batches, cleared and reused from
// one segment to the next (one goroutine, the applier, owns it). The batches
// it returns are valid until its next call — which is why OpLog.AppendBatch
// may not retain its arguments.
type coalescer struct {
	last             map[graph.Edge]bool // true: the edge's last op inserts it
	order            []graph.Edge        // first-seen order keeps batches deterministic
	removes, inserts []graph.Edge
}

// coalesceKeep is the largest segment, in distinct edges, whose scratch is
// carried over: clearing a map costs its capacity, so the map one huge drain
// grew must not tax every small one after it.
const coalesceKeep = 1024

// coalesce flattens a segment of update ops into disjoint remove/insert
// batches. For every canonical edge the last enqueued op wins — a valid
// linearization, since callers in the same drain are concurrent and the
// engines skip duplicate insertions and absent removals, so replaying only
// the final op per edge reaches the same quiescent state. Within one op
// the removals come first, so an edge an op both removes and inserts ends
// present — the state the engine's remove-then-insert order reaches on the
// lone-op fast path. canceled counts edge ops superseded by an
// opposite-kind one (insert+remove pairs that annihilated within the drain).
func (c *coalescer) coalesce(seg []*Pending) (removes, inserts []graph.Edge, canceled int) {
	if len(c.order) > coalesceKeep {
		*c = coalescer{}
	}
	if len(seg) == 1 {
		// Fast path: a lone op keeps its batch verbatim (exact seed
		// semantics, including caller-chosen edge order).
		return seg[0].removes, seg[0].inserts, 0
	}
	if c.last == nil {
		c.last = make(map[graph.Edge]bool)
	}
	clear(c.last)
	c.order, c.removes, c.inserts = c.order[:0], c.removes[:0], c.inserts[:0]
	for _, op := range seg {
		for k, edges := range [2][]graph.Edge{op.removes, op.inserts} {
			insert := k == 1
			for _, e := range edges {
				ne := e.Norm()
				prev, seen := c.last[ne]
				if !seen {
					c.order = append(c.order, ne)
				} else if prev != insert {
					canceled++
				}
				c.last[ne] = insert
			}
		}
	}
	for _, e := range c.order {
		if c.last[e] {
			c.inserts = append(c.inserts, e)
		} else {
			c.removes = append(c.removes, e)
		}
	}
	return c.removes, c.inserts, canceled
}
