package persist

import (
	"time"

	"repro/obs"
)

// RegisterMetrics adds the durability subsystem's metrics to reg: the
// fsync (labeled with the fsync policy), commit-wait and checkpoint-pause
// latency histograms plus scrape-time views of the counters Stats already
// reports.
func (p *Manager) RegisterMetrics(reg *obs.Registry) {
	reg.MustRegister(
		p.fsyncLat,
		p.commitWait,
		p.pauseLat,
		obs.NewCounterFunc("kcored_aof_records_total", "AOF records appended.",
			func() float64 { return float64(p.records.Load()) }),
		obs.NewCounterFunc("kcored_aof_bytes_total", "AOF bytes appended.",
			func() float64 { return float64(p.appendedBytes.Load()) }),
		obs.NewCounterFunc("kcored_checkpoints_total", "Checkpoints completed (initial included).",
			func() float64 { return float64(p.checkpoints.Load()) }),
		obs.NewGaugeFunc("kcored_checkpoint_generation", "Current durability generation.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(p.gen)
			}),
		obs.NewGaugeFunc("kcored_checkpoint_last_duration_seconds", "Wall time of the last checkpoint.",
			func() float64 { return time.Duration(p.lastSaveDur.Load()).Seconds() }),
		obs.NewGaugeFunc("kcored_checkpoint_last_unix", "Completion time of the last checkpoint (unix seconds, 0 before the first).",
			func() float64 { return float64(p.lastSaveUnix.Load()) }),
		obs.NewGaugeFunc("kcored_aof_ops_since_checkpoint", "Edge ops logged since the last checkpoint rotated the log.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(p.opsSince)
			}),
		obs.NewGaugeSeriesFunc("kcored_persist_err", "1 when the sticky persistence error has tripped, else 0; the error label carries its message.",
			func() []obs.Sample {
				s := obs.Sample{Labels: []obs.Label{obs.L("error", "")}}
				if err := p.Err(); err != nil {
					s = obs.Sample{Labels: []obs.Label{obs.L("error", err.Error())}, Value: 1}
				}
				return []obs.Sample{s}
			}),
		obs.NewGaugeFunc("kcored_sync_followers", "Live replication sync sessions.",
			func() float64 { return float64(p.syncsLive.Load()) }),
		obs.NewCounterFunc("kcored_sync_dropped_total", "Sync sessions that ended a whole checkpoint behind (slow-follower policy).",
			func() float64 { return float64(p.syncDropped.Load()) }),
		obs.NewCounterFunc("kcored_syncs_started_total", "Follower sync sessions started.",
			func() float64 { return float64(p.syncsStarted.Load()) }),
	)
}
