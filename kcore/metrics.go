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
// A PipelineMetrics is cumulative and independent of any one Maintainer:
// pass it to New via WithPipelineMetrics to keep one continuous series
// across maintainer re-bootstraps (a replica builds a fresh Maintainer
// per FULLSYNC, but its operator wants one monotone latency history).
// When the option is absent New builds a private instance, so the
// observation sites never nil-check.
type PipelineMetrics struct {
	CoalesceWait *obs.Histogram
	Apply        *obs.Histogram
	Publish      *obs.Histogram
	Update       *obs.Histogram
}

// NewPipelineMetrics builds the pipeline histograms for one engine label.
func NewPipelineMetrics(engine string) *PipelineMetrics {
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

// WithPipelineMetrics attaches an externally owned PipelineMetrics to
// the Maintainer, keeping its histograms cumulative across maintainer
// rebuilds. The caller should construct it with the same engine label
// it builds the Maintainer with.
func WithPipelineMetrics(pm *PipelineMetrics) Option {
	return func(c *config) { c.pm = pm }
}

// PipelineMetrics returns the Maintainer's pipeline histograms (the
// attached instance, or the private one New built).
func (m *Maintainer) PipelineMetrics() *PipelineMetrics { return m.eng.cfg.pm }
