package pcore

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
	// Rebuilds is 1 if the batch spent its budget and finished with a
	// rebuild of the state, else 0 (Engine.InsertEdges).
	Rebuilds int64
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
