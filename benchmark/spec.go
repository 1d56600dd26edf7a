package main

import "fmt"

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures: BENCHMARK.json's run_seconds
// and the default of -seconds.
const runSeconds = 8

// endToEnd is what a user of the system pays, measured with tracing
// off. The driver's contract wants every workload to report every row,
// never 0, under one bound per row, so speed is one pair of names —
// ops_per_s and op_p50_us — whose op and flight each workload defines
// (workloadDefs); the per-kind figures ISSUE 11 listed are the client.*
// rows below. README "Steadiness" has the measurements behind the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"heap_after_setup_mb", "MB", "lower", 0.05},
	{"heap_after_run_mb", "MB", "lower", 0.05},
}

// perLayer is reported by the traced run only. A layer a workload does
// not exercise reports 0 for its rows.
var perLayer = []metricDef{
	// graph / gen
	{Name: "graph.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.add_edge_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.remove_edge_ns", Unit: "ns", Better: "lower"},
	// kcore: construction, engines, pipeline, publication
	{Name: "kcore.new_s", Unit: "s", Better: "lower"},
	{Name: "kcore.apply_us_per_edge_insert", Unit: "us", Better: "lower"},
	{Name: "kcore.apply_us_per_edge_remove", Unit: "us", Better: "lower"},
	{Name: "kcore.apply_us_per_batch8", Unit: "us", Better: "lower"},
	{Name: "kcore.coalesce_wait_s", Unit: "s", Better: "lower"},
	{Name: "kcore.apply_s", Unit: "s", Better: "lower"},
	{Name: "kcore.publish_s", Unit: "s", Better: "lower"},
	{Name: "kcore.batches", Unit: "count", Better: "lower"},
	{Name: "kcore.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "kcore.canceled_ops", Unit: "count", Better: "lower"},
	{Name: "kcore.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kcore.update_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kcore.publishes_full", Unit: "count", Better: "lower"},
	{Name: "kcore.publishes_delta", Unit: "count", Better: "higher"},
	{Name: "kcore.publishes_unchanged", Unit: "count", Better: "higher"},
	{Name: "kcore.publishes_grow", Unit: "count", Better: "lower"},
	{Name: "kcore.dirty_pages_per_delta", Unit: "count", Better: "lower"},
	{Name: "kcore.vstar_per_edge", Unit: "count", Better: "lower"},
	{Name: "kcore.vplus_le10_share", Unit: "%", Better: "higher"},
	{Name: "kcore.lock_aborts_per_kedge", Unit: "count", Better: "lower"},
	{Name: "kcore.queue_rebuilds_per_kedge", Unit: "count", Better: "lower"},
	{Name: "kcore.removal_redos_per_kedge", Unit: "count", Better: "lower"},
	{Name: "kcore.evictions_per_kedge", Unit: "count", Better: "lower"},
	{Name: "kcore.w1_over_w2_insert", Unit: "ratio", Better: "higher"},
	{Name: "kcore.w1_over_w2_remove", Unit: "ratio", Better: "higher"},
	{Name: "kcore.seq_over_par_insert", Unit: "ratio", Better: "higher"},
	{Name: "kcore.seq_over_par_remove", Unit: "ratio", Better: "higher"},
	{Name: "kcore.jes_over_par_insert", Unit: "ratio", Better: "higher"},
	{Name: "kcore.jes_over_par_remove", Unit: "ratio", Better: "higher"},
	{Name: "kcore.ba_apply_us_per_edge_insert", Unit: "us", Better: "lower"},
	{Name: "kcore.ba_apply_us_per_edge_remove", Unit: "us", Better: "lower"},
	{Name: "kcore.coreof_ns", Unit: "ns", Better: "lower"},
	// resp
	{Name: "resp.parse_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "resp.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "resp.readcommand_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "resp.write_int_ns", Unit: "ns", Better: "lower"},
	{Name: "resp.readvalue_ns_per_reply", Unit: "ns", Better: "lower"},
	// server
	{Name: "server.ping_flight_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.residual_ns_per_get", Unit: "ns", Better: "lower"},
	{Name: "server.commands", Unit: "count", Better: "lower"},
	{Name: "server.pipeline_depth_p50", Unit: "count", Better: "higher"},
	{Name: "server.proto_errors", Unit: "count", Better: "lower"},
	{Name: "server.errors_sent", Unit: "count", Better: "lower"},
	// persist
	{Name: "persist.append_us_per_batch8", Unit: "us", Better: "lower"},
	{Name: "persist.append_nosync_ns_per_batch8", Unit: "ns", Better: "lower"},
	{Name: "persist.fsync_s", Unit: "s", Better: "lower"},
	{Name: "persist.fsyncs", Unit: "count", Better: "lower"},
	{Name: "persist.edges_per_fsync", Unit: "count", Better: "higher"},
	{Name: "persist.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "persist.dir_bytes_per_live_edge", Unit: "B", Better: "lower"},
	{Name: "persist.records", Unit: "count", Better: "lower"},
	{Name: "persist.checkpoints", Unit: "count", Better: "lower"},
	{Name: "persist.checkpoint_last_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.recover_read_s", Unit: "s", Better: "lower"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower"},
	{Name: "persist.err", Unit: "count", Better: "lower"},
	// client: the codec's cost, then what the client observed per op kind
	{Name: "client.send_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "client.receive_ns_per_reply", Unit: "ns", Better: "lower"},
	{Name: "client.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "client.insert_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.remove_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.write_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.write_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.read_cmds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.read_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.generator_late_share", Unit: "%", Better: "lower"},
	{Name: "client.failed_ops_share", Unit: "%", Better: "lower"},
	// cluster
	{Name: "cluster.route_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "cluster.fanout_s", Unit: "s", Better: "lower"},
	{Name: "cluster.shard_requests", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_errors", Unit: "count", Better: "lower"},
	{Name: "cluster.cross_share", Unit: "%", Better: "lower"},
	{Name: "cluster.pool_dials", Unit: "count", Better: "lower"},
	{Name: "cluster.pool_replaced", Unit: "count", Better: "lower"},
	// obs
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.series", Unit: "count", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	// process and the tracer itself
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "%", Better: "lower"},
	// budget: the client-observed flight beside the sum of its priced parts
	{Name: "budget.flight_mean_us", Unit: "us", Better: "lower"},
	{Name: "budget.explained_us", Unit: "us", Better: "higher"},
	{Name: "budget.unexplained_us", Unit: "us", Better: "lower"},
}

// workloadDef names one workload, why it exists (recorded verbatim in
// BENCHMARK.json) and how to build it.
type workloadDef struct {
	Name string
	Why  string
	new  func(in *inputs, env *env) workload
}

var workloadDefs = []workloadDef{
	{"burst-batch",
		"Library only: 10k-edge RemoveEdges/InsertEdges bursts on the 200k-vertex social graph (paper Fig. 4-6); per-edge engine+publish cost; resp/server/persist/client/cluster idle. op = edge",
		newBurstBatch},
	{"serve-read",
		"2 conns x 32-deep CORE.GET flights (+1 MGET of 64 per 8), no writes, no persistence: resp+server+client are the whole budget; engine and persist idle. op = cmd/id, p50 = GET flight",
		newServeRead},
	{"serve-write-durable",
		"2 conns x 8-deep single-edge write flights, fsync=always, checkpoint every 25k ops, then recover a live copy: per-batch fixed cost (fsync, coalesce, publish). op = acked edge, p50 = flight ack",
		newServeWriteDurable},
	{"serve-mixed",
		"fsync=everysec: conn A closed-loop 16-deep write flights beside conn B open-loop 32-GET flights timed from due time: reads vs writes on 2 shared cores. op = acked edge, p50 = read flight",
		newServeMixed},
	{"cluster-routed",
		"Router over 2 in-process shards, 10% cross edges: 256-edge routed writes alternating 1:1 with 256-id MGet; the only path through cluster/ and client.Pool. op = edge or id, p50 = write+MGet round",
		newClusterRouted},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// unitOf maps every declared metric name to its unit; emitting a name
// that is not in it is a bug (see result.set).
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
