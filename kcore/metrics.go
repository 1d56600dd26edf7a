package kcore

import "repro/obs"

// PipelineMetrics holds the update pipeline's histograms. The stage
// histograms time each batch: how long coalesced ops waited in the queue
// before their batch started, how long the engine round took, and how
// long snapshot publication took — one family,
// kcore_pipeline_stage_seconds, labeled by stage and engine. Update times
// each op, from submission until its waiter's Wait returns
// (kcore_update_latency_seconds).
//
// New builds one per Maintainer, and it is cumulative over the
// Maintainer's life: Reload rebuilds the engine, not the pipeline, so a
// follower that re-bootstraps keeps one continuous latency history.
type PipelineMetrics struct {
	CoalesceWait *obs.Histogram
	Apply        *obs.Histogram
	Publish      *obs.Histogram
	Update       *obs.Histogram
}

// newPipelineMetrics builds the pipeline histograms for one engine label.
func newPipelineMetrics(engine string) *PipelineMetrics {
	const name = "kcore_pipeline_stage_seconds"
	const help = "Update pipeline stage latency: queue wait before the batch, engine apply, snapshot publish."
	return &PipelineMetrics{
		CoalesceWait: obs.NewDurationHistogram(name, help, obs.L("engine", engine), obs.L("stage", "coalesce_wait")),
		Apply:        obs.NewDurationHistogram(name, help, obs.L("engine", engine), obs.L("stage", "apply")),
		Publish:      obs.NewDurationHistogram(name, help, obs.L("engine", engine), obs.L("stage", "publish")),
		Update: obs.NewDurationHistogram("kcore_update_latency_seconds",
			"Per-op update latency: submission until the op's waiter has its result.", obs.L("engine", engine)),
	}
}

// Register adds the pipeline histograms to reg.
func (pm *PipelineMetrics) Register(reg *obs.Registry) {
	reg.MustRegister(pm.CoalesceWait, pm.Apply, pm.Publish, pm.Update)
}

// PipelineMetrics returns the Maintainer's pipeline histograms.
func (m *Maintainer) PipelineMetrics() *PipelineMetrics { return m.pipe.pm }
