package pcore

import "sync/atomic"

// Metrics holds the contention and work counters of one batch. The paper's
// work-depth analysis (§4.1.3, §4.2.3) argues that blocking is rare because
// V+ and V* are almost always tiny (Fig. 1); these counters expose the
// mechanism directly: how often a conditional lock aborted because another
// worker changed a core number, how often a priority queue had to rebuild
// its label snapshot, and how often a removal propagation was forced to redo
// by a concurrent CheckMCD. Every worker counts into its own Metrics (plain
// fields, one writer) and the engine sums them when the batch is quiescent.
type Metrics struct {
	// LockAborts counts conditional-lock acquisitions abandoned because
	// the target's core number left the operation's level (insertion
	// dequeues and removal neighbor visits).
	LockAborts int64
	// QueueRebuilds counts full label re-snapshots of insertion priority
	// queues (Algorithm 9 update_version executions).
	QueueRebuilds int64
	// RemovalRedos counts propagation rounds re-run because a neighbor's
	// CheckMCD CASed the t status from 1 to 3 (Algorithm 8 line 16).
	RemovalRedos int64
	// Evictions counts Backward repositionings (insertion candidates
	// confirmed out after having joined V*).
	Evictions int64
	// Promotions and Drops count core-number changes applied.
	Promotions int64
	Drops      int64
	// RepairTargets counts the d⁺out recomputations of the batch-end
	// repair: every repositioned vertex plus the neighbors recordMove
	// selected, each counted once.
	RepairTargets int64
}

func (m *Metrics) add(o Metrics) {
	m.LockAborts += o.LockAborts
	m.QueueRebuilds += o.QueueRebuilds
	m.RemovalRedos += o.RemovalRedos
	m.Evictions += o.Evictions
	m.Promotions += o.Promotions
	m.Drops += o.Drops
	m.RepairTargets += o.RepairTargets
}

// ServeMetrics instruments the serving-layer update pipeline that feeds
// batches to the engines: how deep the op queue runs, how many caller ops
// each coalesced drain covered, and how many ops were superseded by a later
// op on the same edge (canceling insert/remove pairs). All counters are
// safe for concurrent use.
type ServeMetrics struct {
	// QueueDepth is a gauge: ops enqueued or being applied right now.
	QueueDepth atomic.Int64
	// Enqueued counts every update op accepted by the pipeline.
	Enqueued atomic.Int64
	// Batches counts coalesced engine batches applied by the applier.
	Batches atomic.Int64
	// BatchedOps counts the caller ops those batches covered; BatchedOps /
	// Batches is the mean coalesced-batch size.
	BatchedOps atomic.Int64
	// CanceledOps counts edge ops dropped because a later op on the same
	// canonical edge superseded them within one drain.
	CanceledOps atomic.Int64
	// Flushes counts barrier ops (Flush, Check, analysis snapshots).
	Flushes atomic.Int64
}

// Snapshot returns a plain-value copy for reporting.
func (m *ServeMetrics) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		QueueDepth:  m.QueueDepth.Load(),
		Enqueued:    m.Enqueued.Load(),
		Batches:     m.Batches.Load(),
		BatchedOps:  m.BatchedOps.Load(),
		CanceledOps: m.CanceledOps.Load(),
		Flushes:     m.Flushes.Load(),
	}
}

// ServeSnapshot is the plain-value form of ServeMetrics.
type ServeSnapshot struct {
	QueueDepth  int64
	Enqueued    int64
	Batches     int64
	BatchedOps  int64
	CanceledOps int64
	Flushes     int64
}
