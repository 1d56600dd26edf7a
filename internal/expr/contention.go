package expr

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/pcore"
)

// RunContention quantifies the paper's §4 blocking analysis: for every suite
// graph it runs a 16-worker Parallel-Order insert batch and remove batch and
// reports the synchronization counters — conditional-lock aborts, priority
// queue rebuilds and removal redo rounds — and the d⁺out recomputations of the
// batch-end repair, normalized per edge. The paper argues these stay rare
// because V+ and V* are almost always tiny (Fig. 1); the table makes that
// claim measurable. Its last column counts insert batches that spent their
// traversal budget and finished with a rebuild (0 or 1 per graph): a 1 means
// the row measured BZ, not Algorithm 7.
func RunContention(cfg Config) {
	_, batchSize := cfg.Scale.params()
	workers := cfg.Workers[len(cfg.Workers)-1]
	cfg.printf("Contention — Parallel-Order synchronization counters, %d workers, batch = %d edges\n",
		workers, batchSize)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Graph\tins aborts/edge\tins Q-rebuilds/edge\tins evictions/edge\trem aborts/edge\trem redos/edge\tins repair targets/edge\trem repair targets/edge\tins rebuilds")
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		w := BuildWorkload(sg, batchSize, cfg.Seed)
		per := func(x int64) float64 { return float64(x) / float64(len(w.Batch)) }

		stIns := core.NewState(w.WithoutBatch())
		ins := pcore.New(stIns, workers).InsertEdges(w.Batch).Metrics

		stRem := core.NewState(w.Base.Clone())
		rem := pcore.New(stRem, workers).RemoveEdges(w.Batch).Metrics

		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%.2f\t%d\n", sg.Name,
			per(ins.LockAborts), per(ins.QueueRebuilds), per(ins.Evictions),
			per(rem.LockAborts), per(rem.RemovalRedos),
			per(ins.RepairTargets), per(rem.RepairTargets), ins.Rebuilds)
	}
	tw.Flush()
	cfg.printf("(counters near zero mean workers almost never block each other — the §4 argument)\n")
}
