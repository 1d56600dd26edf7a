package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/client"
	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
	"repro/resp"
)

// This file is the traced run's per-layer half: counter deltas read
// through accessors the layers already export, and replays that time
// each layer's public calls on the inputs the workload used.

// sub returns after-before for every key of after; keys starting with
// "last_" are gauges and keep their after value.
func sub(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if strings.HasPrefix(k, "last_") {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

// seriesSum adds up every scraped series whose name starts with prefix
// and whose label set contains label ("" = any).
func seriesSum(scr map[string]float64, prefix, label string) float64 {
	var s float64
	for k, v := range scr {
		if strings.HasPrefix(k, prefix) && strings.Contains(k, label) {
			s += v
		}
	}
	return s
}

// pipelineCounters samples the update pipeline of the given
// maintainers (summed) through ServingStats and, when a registry is
// being scraped, every histogram sum and counter the per-layer metrics
// take deltas of: pipeline stages, AOF fsync, router fan-out.
func pipelineCounters(reg *obs.Registry, ms ...*kcore.Maintainer) (map[string]float64, error) {
	c := map[string]float64{}
	for _, m := range ms {
		s := m.ServingStats()
		c["batches"] += float64(s.Batches)
		c["batched_ops"] += float64(s.BatchedOps)
		c["canceled_ops"] += float64(s.CanceledOps)
		c["publishes_full"] += float64(s.FullPublishes)
		c["publishes_delta"] += float64(s.DeltaPublishes)
		c["publishes_unchanged"] += float64(s.UnchangedPublishes)
		c["publishes_grow"] += float64(s.GrowPublishes)
		c["dirty_pages"] += float64(s.DirtyPages)
	}
	scr, took, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	const stage = "kcore_pipeline_stage_seconds_sum"
	c["coalesce_wait_s"] = seriesSum(scr, stage, `stage="coalesce_wait"`)
	c["apply_s"] = seriesSum(scr, stage, `stage="apply"`)
	c["publish_s"] = seriesSum(scr, stage, `stage="publish"`)
	c["fsync_s"] = seriesSum(scr, "kcored_aof_fsync_seconds_sum", "")
	c["fsyncs"] = seriesSum(scr, "kcored_aof_fsync_seconds_count", "")
	c["fanout_s"] = seriesSum(scr, "cluster_fanout_seconds_sum", "")
	c["shard_requests"] = seriesSum(scr, "cluster_shard_requests_total", "")
	c["shard_errors"] = seriesSum(scr, "cluster_shard_errors_total", "")
	c["last_scrape_ms"] = float64(took.Nanoseconds()) / 1e6
	c["last_series"] = float64(len(scr))
	return c, nil
}

// setPipeline reports the kcore pipeline and publication counters of
// the traced phase.
func setPipeline(r *result, c map[string]float64, ms ...*kcore.Maintainer) {
	r.set("kcore.coalesce_wait_s", c["coalesce_wait_s"])
	r.set("kcore.apply_s", c["apply_s"])
	r.set("kcore.publish_s", c["publish_s"])
	r.set("kcore.batches", c["batches"])
	r.set("kcore.ops_per_batch", c["batched_ops"]/max(c["batches"], 1))
	r.set("kcore.canceled_ops", c["canceled_ops"])
	r.set("kcore.publishes_full", c["publishes_full"])
	r.set("kcore.publishes_delta", c["publishes_delta"])
	r.set("kcore.publishes_unchanged", c["publishes_unchanged"])
	r.set("kcore.publishes_grow", c["publishes_grow"])
	r.set("kcore.dirty_pages_per_delta", c["dirty_pages"]/max(c["publishes_delta"], 1))
	var p50, p99 float64
	for _, m := range ms {
		ul := m.ServingStats().UpdateLatency
		p50, p99 = max(p50, ul.P50), max(p99, ul.P99)
	}
	r.set("kcore.update_p50_ms", p50)
	r.set("kcore.update_p99_ms", p99)
}

// replayGraph prices the adjacency layer under the engines: RemoveEdge
// then AddEdge of every churn edge on a private copy.
func replayGraph(r *result, tr *tracer, root int32, g *graph.Graph, churn []graph.Edge) {
	cp := g.Clone()
	rem := tr.call(root, "graph.RemoveEdge", func() {
		for _, e := range churn {
			cp.RemoveEdge(e.U, e.V)
		}
	})
	add := tr.call(root, "graph.AddEdge", func() {
		for _, e := range churn {
			cp.AddEdge(e.U, e.V)
		}
	})
	r.set("graph.remove_edge_ns", float64(rem.Nanoseconds())/float64(len(churn)))
	r.set("graph.add_edge_ns", float64(add.Nanoseconds())/float64(len(churn)))
}

// replayBatch8 prices the engine's per-batch fixed cost: the write
// flights' small batches straight into a fresh maintainer — no network,
// no log.
func replayBatch8(r *result, tr *tracer, root int32, g *graph.Graph, edges []graph.Edge, depth, block int) {
	m := kcore.New(g.Clone(), kcore.WithAlgorithm(kcore.ParallelOrder), kcore.WithWorkers(writeNodeWorkers))
	defer m.Close()
	ch := newChurner(edges[:min(len(edges), 1000*depth)], depth, block)
	batches := 2 * len(ch.edges) / depth // every block removed and re-inserted once
	took := tr.call(root, "kcore.apply_batch8", func() {
		for i := 0; i < batches; i++ {
			if es, ins := ch.next(); ins {
				m.InsertEdges(es)
			} else {
				m.RemoveEdges(es)
			}
		}
	})
	r.set("kcore.apply_us_per_batch8", usPer(took, batches))
}

// stubConn is a net.Conn for codec replays: writes are captured or
// discarded, reads serve canned bytes over and over.
type stubConn struct {
	net.Conn // nil: only Read, Write and Close are ever called
	capture  *bytes.Buffer
	canned   []byte
	off      int
}

func (s *stubConn) Write(p []byte) (int, error) {
	if s.capture != nil {
		s.capture.Write(p)
	}
	return len(p), nil
}

func (s *stubConn) Read(p []byte) (int, error) {
	if len(s.canned) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.canned[s.off:])
	s.off = (s.off + n) % len(s.canned)
	return n, nil
}

func (s *stubConn) Close() error { return nil }

// flightShape sends one flight of the workload's shape without
// flushing or receiving; cmds is how many commands it buffered.
type flightShape func(c *client.Conn) (cmds int)

// replayCodec prices resp and client on the workload's own traffic:
// the request bytes its flights put on the wire and the reply bytes
// the server answers them with. It returns the per-command costs the
// budget table needs, in ns.
func replayCodec(r *result, tr *tracer, shape flightShape, reply func(w *resp.Writer, cmds int)) (parseNs, writeNs float64) {
	const flights = 2000
	root := tr.add(0, "replay.client", time.Now(), time.Now(), 0)

	// Capture the requests through the real client encoder.
	var req bytes.Buffer
	cc := client.NewConn(&stubConn{capture: &req})
	cmds := 0
	for i := 0; i < flights; i++ {
		cmds += shape(cc)
		cc.Flush()
	}
	var rep bytes.Buffer
	rw := resp.NewWriter(&rep)
	reply(rw, cmds)
	rw.Flush()

	// client: Send+Flush into a discarding conn, Receive from canned replies.
	sc := client.NewConn(&stubConn{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	send := tr.call(root, "client.Send+Flush", func() {
		for i := 0; i < flights; i++ {
			shape(sc)
			sc.Flush()
		}
	})
	runtime.ReadMemStats(&m1)
	rc := client.NewConn(&stubConn{canned: rep.Bytes()})
	recv := tr.call(root, "client.Receive", func() {
		for i := 0; i < cmds; i++ {
			rc.Receive()
		}
	})
	r.set("client.send_ns_per_cmd", float64(send.Nanoseconds())/float64(cmds))
	r.set("client.receive_ns_per_reply", float64(recv.Nanoseconds())/float64(cmds))
	r.set("client.allocs_per_cmd", float64(m1.Mallocs-m0.Mallocs)/float64(cmds))

	// resp: both command parsers over the request bytes, the reply
	// writer, and the reply reader over the reply bytes.
	root = tr.add(0, "replay.resp", time.Now(), time.Now(), 0)
	buf := req.Bytes()
	var cmd resp.Command
	parse := tr.call(root, "resp.Parser.Parse", func() {
		var p resp.Parser
		for off := 0; off < len(buf); {
			n, err := p.Parse(buf[off:], &cmd)
			if err != nil {
				break
			}
			off += n
		}
	})
	readCmd := tr.call(root, "resp.Reader.ReadCommand", func() {
		rd := resp.NewReader(bytes.NewReader(buf))
		for rd.ReadCommand(&cmd) == nil {
		}
	})
	write := tr.call(root, "resp.Writer.WriteInt", func() {
		w := resp.NewWriter(io.Discard)
		for i := 0; i < cmds; i++ {
			w.WriteInt(int64(i & 63))
		}
		w.Flush()
	})
	readVal := tr.call(root, "resp.Reader.ReadValue", func() {
		rd := resp.NewReader(bytes.NewReader(rep.Bytes()))
		for {
			if _, err := rd.ReadValue(); err != nil {
				break
			}
		}
	})
	parseNs = float64(parse.Nanoseconds()) / float64(cmds)
	writeNs = float64(write.Nanoseconds()) / float64(cmds)
	r.set("resp.parse_ns_per_cmd", parseNs)
	r.set("resp.parse_mb_per_s", float64(len(buf))/1e6/parse.Seconds())
	r.set("resp.readcommand_ns_per_cmd", float64(readCmd.Nanoseconds())/float64(cmds))
	r.set("resp.write_int_ns", writeNs)
	r.set("resp.readvalue_ns_per_reply", float64(readVal.Nanoseconds())/float64(cmds))
	return parseNs, writeNs
}

// replayServer measures the floor under every served flight — a
// 32-deep PING flight does network, parse, dispatch and reply with no
// engine work — and reports the server's own counters for the traced
// phase.
func replayServer(r *result, tr *tracer, n *node, c map[string]float64) error {
	root := tr.add(0, "replay.server", time.Now(), time.Now(), 0)
	conn, err := client.Dial(n.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var us []float64
	for i := 0; i < 2000; i++ {
		var ferr error
		d := tr.call(root, "server.ping_flight", func() {
			for j := 0; j < 32; j++ {
				conn.Send("PING")
			}
			conn.Flush()
			for j := 0; j < 32; j++ {
				if _, err := conn.Receive(); err != nil {
					ferr = err
				}
			}
		})
		if ferr != nil {
			return ferr
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	r.set("server.ping_flight_p50_us", median(us))
	setServer(r, c, n)
	return nil
}

// setServer reports the network-side counters of the traced phase; the
// pipeline depth is node n's.
func setServer(r *result, c map[string]float64, n *node) {
	r.set("server.commands", c["server_commands"])
	r.set("server.proto_errors", c["server_proto_errors"])
	r.set("server.errors_sent", c["server_errors_sent"])
	r.set("server.pipeline_depth_p50", n.srv.Stats().PipelineDepth.P50)
}

// serverCounters adds the node's network-side counters to c.
func serverCounters(c map[string]float64, n *node) {
	s := n.srv.Stats()
	c["server_commands"] += float64(s.Commands)
	c["server_proto_errors"] += float64(s.ProtoErrors)
	c["server_errors_sent"] += float64(s.ErrorsSent)
}

// persistCounters adds the durability manager's counters to c.
func persistCounters(c map[string]float64, mgr *persist.Manager) {
	s := mgr.Stats()
	c["persist_records"] += float64(s.Records)
	c["persist_bytes"] += float64(s.AppendedBytes)
	c["persist_checkpoints"] += float64(s.Checkpoints)
}

// replayPersist prices the log append alone: the same small batches
// handed to a private Manager, with and without the per-batch fsync.
func replayPersist(r *result, tr *tracer, dir string, edges []graph.Edge, depth int) error {
	root := tr.add(0, "replay.persist", time.Now(), time.Now(), 0)
	one := func(policy persist.Fsync, batches int) (time.Duration, error) {
		d := filepath.Join(dir, "append-"+policy.String())
		defer os.RemoveAll(d)
		mgr, err := persist.NewManager(d, persist.Options{Fsync: policy, CheckpointOps: -1, CheckpointBytes: -1, Logger: discardLog})
		if err != nil {
			return 0, err
		}
		m := kcore.New(graph.New(0))
		defer m.Close()
		if err := mgr.Start(m); err != nil {
			return 0, err
		}
		defer mgr.Close()
		took := tr.call(root, "persist.AppendBatch."+policy.String(), func() {
			for i := 0; i < batches; i++ {
				off := (i * depth) % (len(edges) - depth)
				mgr.AppendBatch(nil, edges[off:off+depth])
			}
		})
		if e := mgr.Err(); e != nil {
			return 0, e
		}
		return took, nil
	}
	const syncBatches, noSyncBatches = 300, 20000
	always, err := one(persist.FsyncAlways, syncBatches)
	if err != nil {
		return err
	}
	none, err := one(persist.FsyncNo, noSyncBatches)
	if err != nil {
		return err
	}
	r.set("persist.append_us_per_batch8", usPer(always, syncBatches))
	r.set("persist.append_nosync_ns_per_batch8", float64(none.Nanoseconds())/noSyncBatches)
	return nil
}

// setPersist reports the durability counters of the traced phase.
func setPersist(r *result, c map[string]float64, n *node, ackedEdges int64) error {
	r.set("persist.fsync_s", c["fsync_s"])
	r.set("persist.fsyncs", c["fsyncs"])
	r.set("persist.edges_per_fsync", float64(ackedEdges)/max(c["fsyncs"], 1))
	r.set("persist.bytes_per_edge", c["persist_bytes"]/float64(max(ackedEdges, 1)))
	r.set("persist.records", c["persist_records"])
	r.set("persist.checkpoints", c["persist_checkpoints"])
	st := n.mgr.Stats()
	r.set("persist.checkpoint_last_ms", float64(st.LastSaveDuration.Nanoseconds())/1e6)
	if st.Err != "" {
		r.set("persist.err", 1)
		return errors.New("persist: " + st.Err)
	}
	size, err := dirSize(n.dir)
	if err != nil {
		return err
	}
	r.set("persist.dir_bytes_per_live_edge", float64(size)/float64(max(n.m.Snapshot().M(), 1)))
	return nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total, nil
}

// replayObs prices the instrumentation layer's hot call.
func replayObs(r *result, tr *tracer, c map[string]float64) {
	root := tr.add(0, "replay.obs", time.Now(), time.Now(), 0)
	h := obs.NewDurationHistogram("benchmark_probe_seconds", "Observe cost probe.")
	const n = 5_000_000
	took := tr.call(root, "obs.Histogram.Observe", func() {
		for i := int64(0); i < n; i++ {
			h.Observe(i & 0xfffff)
		}
	})
	r.set("obs.observe_ns", float64(took.Nanoseconds())/n)
	r.set("obs.scrape_ms", c["last_scrape_ms"])
	r.set("obs.series", c["last_series"])
}
