package server

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
)

// statsMap runs CORE.STATS on c and parses the reply, series → value.
func statsMap(t *testing.T, c *client.Conn) map[string]float64 {
	t.Helper()
	text, err := client.String(c.Do("CORE.STATS"))
	if err != nil {
		t.Fatalf("CORE.STATS: %v", err)
	}
	kv, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("CORE.STATS does not parse: %v\n%s", err, text)
	}
	return kv
}

// hasSeries reports whether kv holds a series of metric name whose label
// set contains label ("" = any).
func hasSeries(kv map[string]float64, name, label string) bool {
	for k := range kv {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && strings.Contains(labels, label) {
			return true
		}
	}
	return false
}

// movedKey is one key of the key/value array CORE.STATS replied with
// before it rendered the registry, and the series (and label, when the
// value moved into one) that carries it now.
type movedKey struct{ key, series, label string }

var everyServerKeys = []movedKey{
	{"role", "kcored_info", `role="`},
	{"version", "kcored_info", `version="`},
	{"alg", "kcored_info", `engine="`},
	{"engine", "kcored_info", `engine="`},
	{"workers", "kcored_info", `workers="`},
	{"n", "kcored_vertices", ""},
	{"epoch", "kcored_epoch", ""},
	{"conns_total", "kcored_connections_total", ""},
	{"conns_active", "kcored_connections_active", ""},
	{"commands", "kcored_commands_total", ""},
	{"write_cmds", "kcored_commands_total", `family="write"`},
	{"errors_sent", "kcored_errors_total", `kind="reply"`},
	{"proto_errors", "kcored_errors_total", `kind="protocol"`},
	{"pipeline_p50", "kcored_pipeline_depth_bucket", ""},
	{"pipeline_p99", "kcored_pipeline_depth_bucket", ""},
	{"queue_depth", "kcored_queue_depth", ""},
	{"enqueued", "kcored_pipeline_ops_total", `kind="enqueued"`},
	{"batches", "kcored_batches_total", ""},
	{"batched_ops", "kcored_pipeline_ops_total", `kind="batched"`},
	{"canceled_ops", "kcored_pipeline_ops_total", `kind="canceled"`},
	{"flushes", "kcored_flushes_total", ""},
	{"update_p50_ms", "kcore_update_latency_seconds_bucket", ""},
	{"update_p99_ms", "kcore_update_latency_seconds_bucket", ""},
	{"full_publishes", "kcored_publishes_total", `kind="full"`},
	{"delta_publishes", "kcored_publishes_total", `kind="delta"`},
	{"unchanged_publishes", "kcored_publishes_total", `kind="unchanged"`},
	{"grow_publishes", "kcored_publishes_total", `kind="grow"`},
	{"dirty_pages", "kcored_dirty_pages_total", ""},
	{"recycled_pages", "kcored_recycled_pages_total", ""},
	{"uptime_sec", "kcored_uptime_seconds", ""},
	{"inflight_writes", "kcored_inflight_writes", ""},
	{"slowlog_len", "kcored_slowlog_entries", ""},
	{"slow_total", "kcored_slow_commands_total", ""},
	{"cmds_read", "kcored_commands_total", `family="read"`},
	{"cmds_write", "kcored_commands_total", `family="write"`},
	{"cmds_aggregate", "kcored_commands_total", `family="aggregate"`},
	{"cmds_admin", "kcored_commands_total", `family="admin"`},
	{"read_p50_ms", "kcored_command_latency_seconds_bucket", `family="read"`},
	{"read_p99_ms", "kcored_command_latency_seconds_bucket", `family="read"`},
	{"write_p50_ms", "kcored_command_latency_seconds_bucket", `family="write"`},
	{"write_p99_ms", "kcored_command_latency_seconds_bucket", `family="write"`},
	{"aggregate_p50_ms", "kcored_command_latency_seconds_bucket", `family="aggregate"`},
	{"aggregate_p99_ms", "kcored_command_latency_seconds_bucket", `family="aggregate"`},
	{"admin_p50_ms", "kcored_command_latency_seconds_bucket", `family="admin"`},
	{"admin_p99_ms", "kcored_command_latency_seconds_bucket", `family="admin"`},
}

var durableKeys = []movedKey{
	{"persist_gen", "kcored_checkpoint_generation", ""},
	{"persist_fsync", "kcored_aof_fsync_seconds_count", `policy="no"`},
	{"persist_records", "kcored_aof_records_total", ""},
	{"persist_bytes", "kcored_aof_bytes_total", ""},
	{"persist_ops_since_checkpoint", "kcored_aof_ops_since_checkpoint", ""},
	{"persist_checkpoints", "kcored_checkpoints_total", ""},
	{"persist_last_save", "kcored_checkpoint_last_unix", ""},
	{"persist_last_save_ms", "kcored_checkpoint_last_duration_seconds", ""},
	{"persist_err", "kcored_persist_err", `error=""`},
	{"fsync_p50_ms", "kcored_aof_fsync_seconds_bucket", ""},
	{"fsync_p99_ms", "kcored_aof_fsync_seconds_bucket", ""},
	{"sync_followers", "kcored_sync_followers", ""},
	{"sync_dropped", "kcored_sync_dropped_total", ""},
}

var followerKeys = []movedKey{
	{"replica_of", "kcored_replica_info", `leader="`},
	{"replica_connected", "kcored_replica_connected", ""},
	{"replica_syncs", "kcored_replica_syncs_total", ""},
	{"replica_records", "kcored_replica_records_total", ""},
	{"replica_edges", "kcored_replica_edges_total", ""},
	{"applied_epoch", "kcored_epoch", ""},
	{"leader_epoch", "kcored_replica_leader_epoch", ""},
	{"epoch_lag", "kcored_replica_epoch_lag", ""},
	{"replica_last_err", "kcored_replica_info", `last_error=""`},
}

// TestStatsReplyIsTheRegistry: on a plain leader, a durable leader and
// a follower of it, CORE.STATS parses as Prometheus text and holds
// exactly the series a RegisterMetrics scrape of the same server holds,
// and every key of the old key/value reply is carried by a series or a
// label.
func TestStatsReplyIsTheRegistry(t *testing.T) {
	plain := kcore.New(gen.ErdosRenyi(100, 300, 3), kcore.WithWorkers(2))
	t.Cleanup(plain.Close)
	plainSrv, plainAddr := startServer(t, plain)

	mgr, err := persist.NewManager(t.TempDir(), persist.Options{Fsync: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	durable := kcore.New(gen.ErdosRenyi(100, 300, 5), kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); durable.Close() })
	if err := mgr.Start(durable); err != nil {
		t.Fatal(err)
	}
	durableSrv, durableAddr := startServer(t, durable, WithPersistence(mgr))

	followerSrv, followerAddr := startReplicaServer(t, durableAddr)
	durable.InsertEdges([]graph.Edge{{U: 1, V: 2}})
	if _, err := client.Int(dial(t, followerAddr).Do("CORE.WAIT", int64(durable.Flush()), 15000)); err != nil {
		t.Fatalf("CORE.WAIT on the follower: %v", err)
	}

	for _, node := range []struct {
		name, addr, role string
		srv              *Server
		keys             []movedKey
	}{
		{"plain leader", plainAddr, "leader", plainSrv, everyServerKeys},
		{"durable leader", durableAddr, "leader", durableSrv, append(durableKeys, everyServerKeys...)},
		{"follower", followerAddr, "replica", followerSrv, append(followerKeys, everyServerKeys...)},
	} {
		t.Run(node.name, func(t *testing.T) {
			c := dial(t, node.addr)
			if _, err := c.Do("CORE.GET", 1); err != nil {
				t.Fatal(err)
			}
			got := statsMap(t, c)

			reg := obs.NewRegistry()
			node.srv.RegisterMetrics(reg)
			var b bytes.Buffer
			reg.WritePrometheus(&b)
			want, err := obs.ParseText(&b)
			if err != nil {
				t.Fatal(err)
			}
			if missing, extra := seriesDiff(want, got), seriesDiff(got, want); len(missing)+len(extra) > 0 {
				t.Fatalf("CORE.STATS lacks %v and adds %v over the RegisterMetrics scrape", missing, extra)
			}

			if !hasSeries(got, "kcored_info", `role="`+node.role+`"`) {
				t.Errorf("no kcored_info{role=%q}", node.role)
			}
			for _, k := range node.keys {
				if !hasSeries(got, k.series, k.label) {
					t.Errorf("old key %q: no %s{%s} in CORE.STATS", k.key, k.series, k.label)
				}
			}
		})
	}
}

// seriesDiff lists the series of a that b lacks, sorted.
func seriesDiff(a, b map[string]float64) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
