package server

import (
	"strconv"
	"time"

	"repro/obs"
)

// version is the server's reported version (kcored_info{version=...}).
const version = "0.10.0"

// cmdFamily buckets the command table for instrumentation: per-family
// counters and latency histograms, so the hot read path pays one
// array-indexed increment instead of a per-command-name series lookup.
type cmdFamily uint8

const (
	famRead      cmdFamily = iota // snapshot reads: PING, CORE.GET/MGET/EPOCH/N/MAXCORE
	famWrite                      // pipeline writes, reply deferred: CORE.INSERT/REMOVE
	famAggregate                  // snapshot aggregates, O(MaxCore) or O(range): CORE.HIST/KVERT
	famAdmin                      // everything else (stats, persistence, sync, slowlog), unknown commands included
	numFamilies
)

var familyNames = [numFamilies]string{"read", "write", "aggregate", "admin"}

// depthBounds are the kcored_pipeline_depth buckets, in commands per flush
// cycle: powers of two up to 4096, past the ~1200 smallest commands one
// 16 KB socket read can carry.
var depthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// serverMetrics is the server's instrumentation and the only store of its
// counts: per-family command counters and latency histograms, the
// pipelining-depth histogram, connection and error counters, the
// in-flight write gauge and the slow-command ring. New always builds it.
//
// Latency semantics per family (documented in the histogram help):
// reads are recorded as the pipelined-burst mean (one clock read per
// burst, weighted ObserveN at flush — the zero-allocation contract
// forbids per-command timing on the read path); writes are recorded as
// the drain wait their pipelined burst observed (every write in a drain
// waited approximately the whole drain: replies settle together);
// aggregate and admin commands are individually timed in dispatch.
type serverMetrics struct {
	start          time.Time
	famCount       [numFamilies]*obs.Counter
	famLat         [numFamilies]*obs.Histogram
	pipeDepth      *obs.Histogram // commands per flush cycle
	connsTotal     *obs.Counter
	connsActive    *obs.Gauge
	errorsSent     *obs.Counter // error replies written
	protoErrors    *obs.Counter // connections dropped on malformed frames
	inflightWrites *obs.Gauge   // write futures submitted, not yet drained
	slow           *obs.SlowLog
}

func newServerMetrics(slowThreshold time.Duration, slowSize int) *serverMetrics {
	const errHelp = "Error replies written and connections dropped on malformed frames."
	m := &serverMetrics{
		start: time.Now(),
		pipeDepth: obs.NewHistogram("kcored_pipeline_depth",
			"Commands per flush cycle: how deep clients pipeline (1 = request/response).", 1, depthBounds),
		connsTotal:  obs.NewCounter("kcored_connections_total", "Connections ever accepted."),
		connsActive: obs.NewGauge("kcored_connections_active", "Connections currently open."),
		errorsSent:  obs.NewCounter("kcored_errors_total", errHelp, obs.L("kind", "reply")),
		protoErrors: obs.NewCounter("kcored_errors_total", errHelp, obs.L("kind", "protocol")),
		inflightWrites: obs.NewGauge("kcored_inflight_writes",
			"Write futures submitted to the pipeline, reply not yet settled."),
		slow: obs.NewSlowLog(slowSize, slowThreshold),
	}
	const latHelp = "Command latency: reads as pipelined-burst mean, writes as pipeline drain wait, aggregate/admin individually timed."
	for f := famRead; f < numFamilies; f++ {
		m.famCount[f] = obs.NewCounter("kcored_commands_total",
			"Commands dispatched, by family.", obs.L("family", familyNames[f]))
		m.famLat[f] = obs.NewDurationHistogram("kcored_command_latency_seconds",
			latHelp, obs.L("family", familyNames[f]))
	}
	return m
}

// WithSlowlog configures the slow-command log: commands (and pipelined
// write drains) taking at least threshold land in a fixed ring of size
// entries, served by CORE.SLOWLOG. threshold 0 records everything;
// negative disables recording (the ring still answers CORE.SLOWLOG).
// Default: 10ms threshold, 128 entries.
func WithSlowlog(threshold time.Duration, size int) Option {
	return func(s *Server) {
		s.slowThreshold = threshold
		if size > 0 {
			s.slowSize = size
		}
	}
}

// RegisterMetrics adds the server's whole metric surface to reg — the
// same metric objects CORE.STATS renders: the command-family instruments,
// the network counters, the maintainer's serving counters and pipeline
// histograms, and — when configured — the persistence and replication
// subsystems. Call it after New (and after NewReplica on a follower).
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.MustRegister(s.registry().Metrics()...)
}

// registry returns the server's own registry, which CORE.STATS renders
// and RegisterMetrics copies. It is built once, on first use; the first
// use must come after NewReplica, because the registry records the role.
func (s *Server) registry() *obs.Registry {
	s.regOnce.Do(func() {
		s.reg = obs.NewRegistry()
		s.register(s.reg)
	})
	return s.reg
}

func (s *Server) register(reg *obs.Registry) {
	m := s.metrics
	for f := famRead; f < numFamilies; f++ {
		reg.MustRegister(m.famCount[f], m.famLat[f])
	}

	role := "leader"
	if s.replica != nil {
		role = "replica"
	}
	info := obs.NewGauge("kcored_info", "Build and topology info; the value is always 1.",
		obs.L("version", version),
		obs.L("engine", s.m.Algorithm().String()),
		obs.L("role", role),
		obs.L("workers", strconv.Itoa(s.m.Workers())))
	info.Set(1)

	reg.MustRegister(
		info,
		obs.NewGaugeFunc("kcored_uptime_seconds", "Seconds since the server was created.",
			func() float64 { return time.Since(m.start).Seconds() }),
		m.connsTotal,
		m.connsActive,
		m.errorsSent,
		m.protoErrors,
		m.pipeDepth,
		m.inflightWrites,
		obs.NewCounterFunc("kcored_slow_commands_total", "Commands at or over the slowlog threshold (survives CORE.SLOWLOG RESET).",
			func() float64 { return float64(m.slow.Total()) }),
		obs.NewGaugeFunc("kcored_slowlog_entries", "Entries currently held in the slowlog ring.",
			func() float64 { return float64(m.slow.Len()) }),
	)

	reg.MustRegister(
		obs.NewGaugeFunc("kcored_epoch", "Latest published snapshot epoch; on a follower, the leader epoch it has applied.",
			func() float64 { return float64(s.m.Epoch()) }),
		obs.NewGaugeFunc("kcored_vertices", "Vertex universe size N.",
			func() float64 { return float64(s.m.N()) }),
		obs.NewGaugeFunc("kcored_queue_depth", "Update-pipeline ops enqueued and not yet applied.",
			func() float64 { return float64(s.m.ServingStats().QueueDepth) }),
		obs.NewCounterSeriesFunc("kcored_pipeline_ops_total", "Update-pipeline ops by outcome: enqueued, batched into an engine round, canceled by coalescing.",
			func() []obs.Sample {
				ms := s.m.ServingStats()
				return []obs.Sample{
					{Labels: []obs.Label{obs.L("kind", "enqueued")}, Value: float64(ms.Enqueued)},
					{Labels: []obs.Label{obs.L("kind", "batched")}, Value: float64(ms.BatchedOps)},
					{Labels: []obs.Label{obs.L("kind", "canceled")}, Value: float64(ms.CanceledOps)},
				}
			}),
		obs.NewCounterFunc("kcored_batches_total", "Coalesced engine batches applied.",
			func() float64 { return float64(s.m.ServingStats().Batches) }),
		obs.NewCounterFunc("kcored_flushes_total", "Pipeline barriers (CORE.FLUSH and internal quiescent points).",
			func() float64 { return float64(s.m.ServingStats().Flushes) }),
		obs.NewCounterSeriesFunc("kcored_publishes_total", "Snapshot publications by kind.",
			func() []obs.Sample {
				ms := s.m.ServingStats()
				return []obs.Sample{
					{Labels: []obs.Label{obs.L("kind", "full")}, Value: float64(ms.FullPublishes)},
					{Labels: []obs.Label{obs.L("kind", "delta")}, Value: float64(ms.DeltaPublishes)},
					{Labels: []obs.Label{obs.L("kind", "unchanged")}, Value: float64(ms.UnchangedPublishes)},
					{Labels: []obs.Label{obs.L("kind", "grow")}, Value: float64(ms.GrowPublishes)},
				}
			}),
		obs.NewCounterFunc("kcored_dirty_pages_total", "Snapshot pages rewritten by delta publication.",
			func() float64 { return float64(s.m.ServingStats().DirtyPages) }),
		obs.NewCounterFunc("kcored_recycled_pages_total", "Snapshot pages publication reused from snapshots no reader could reach.",
			func() float64 { return float64(s.m.ServingStats().RecycledPages) }),
		obs.NewCounterFunc("kcore_engine_rebuilds_total", "Insertion batches that spent their traversal budget and finished with one BZ rebuild.",
			func() float64 { return float64(s.m.ServingStats().Rebuilds) }),
	)

	s.m.PipelineMetrics().Register(reg)
	if r := s.replica; r != nil {
		r.registerMetrics(reg)
	}
	if p := s.persist; p != nil {
		p.RegisterMetrics(reg)
	}
}
