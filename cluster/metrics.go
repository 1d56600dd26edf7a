package cluster

import (
	"strconv"

	"repro/obs"
)

// routerMetrics is the router's client-side instrumentation: one
// request/error counter pair per shard (which band is hot, which band
// is dark) and the scatter-gather operation latency. Built in Connect,
// so every routed op is counted from the router's first use; exported
// via RegisterMetrics (the process driving the cluster owns the
// registry and the scrape endpoint, since the router runs client-side).
type routerMetrics struct {
	reqs   []*obs.Counter
	errs   []*obs.Counter
	fanout *obs.Histogram
}

func newRouterMetrics(numShards int) *routerMetrics {
	m := &routerMetrics{
		reqs: make([]*obs.Counter, numShards),
		errs: make([]*obs.Counter, numShards),
		fanout: obs.NewDurationHistogram("cluster_fanout_seconds",
			"Scatter-gather operation latency (slowest shard bounds each op; single-shard routed ops included)."),
	}
	for i := range m.reqs {
		shard := obs.L("shard", strconv.Itoa(i))
		m.reqs[i] = obs.NewCounter("cluster_shard_requests_total",
			"Shard operations issued by the router.", shard)
		m.errs[i] = obs.NewCounter("cluster_shard_errors_total",
			"Shard operations that failed (ShardError).", shard)
	}
	return m
}

// RegisterMetrics adds the router's metrics to reg.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	reg.MustRegister(c.obs.fanout)
	for i := range c.obs.reqs {
		reg.MustRegister(c.obs.reqs[i], c.obs.errs[i])
	}
}
