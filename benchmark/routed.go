package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/cluster"
	"repro/graph"
	"repro/obs"
)

// clusterRouted is the only workload through cluster/: a router over
// two in-process shard servers, one caller goroutine alternating routed
// write chunks with scatter-gather MGets. On two shared cores it prices
// routing overhead, not scaling.
type clusterRouted struct {
	in    *inputs
	env   *env
	nodes []*node
	sm    *cluster.ShardMap
	c     *cluster.Cluster
	reg   *obs.Registry
	churn *churner
	ids   *idStream
}

func newClusterRouted(in *inputs, e *env) workload { return &clusterRouted{in: in, env: e} }

func (w *clusterRouted) setup() error {
	sc := w.in.sc
	addrs := make([][]string, 2)
	for i := range addrs {
		// Each shard starts with its whole local universe (kcored -n): an
		// owned band plus the mirror band above it never exceed the map's
		// capacity. Growing on demand instead leaves the engine's arrays
		// at whatever capacity the arrival order happened to double them
		// to, which moves the heap by whole steps from seed to seed.
		n, err := startNode(graph.New(int(sc.clusterCap)), nodeOpts{workers: 1, connShards: 1}, w.env)
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, n)
		addrs[i] = []string{n.addr}
	}
	sm, err := cluster.EqualRanges(sc.clusterCap, addrs)
	if err != nil {
		return err
	}
	w.sm, w.c = sm, cluster.Connect(sm)
	if w.env.metrics {
		// The router runs client-side, so it gets a registry of its own
		// beside the two shard servers'.
		w.reg = obs.NewRegistry()
		w.c.RegisterMetrics(w.reg)
	}
	const prefill = 1 << 14
	for lo := 0; lo < len(w.in.routed); lo += prefill {
		if err := w.c.InsertEdges(w.in.routed[lo:min(lo+prefill, len(w.in.routed))], nil); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	if _, err := w.c.Flush(); err != nil {
		return err
	}
	w.churn = newChurner(w.in.routed[:sc.clusterChurn], sc.clusterChunk, sc.clusterChurn)
	w.ids = newIDStream(w.in.seed+100, int(sc.clusterCap))
	_, _, _, err = w.oneRound(make([]int32, sc.clusterChunk))
	return err
}

// oneRound is one routed write call followed by one MGet of as many ids.
func (w *clusterRouted) oneRound(ids []int32) (t0, t1, t2 time.Time, err error) {
	es, ins := w.churn.next()
	t0 = time.Now()
	if ins {
		err = w.c.InsertEdges(es, nil)
	} else {
		err = w.c.RemoveEdges(es, nil)
	}
	if err != nil {
		return
	}
	t1 = time.Now()
	w.ids.fill(ids)
	got, err := w.c.MGet(ids)
	t2 = time.Now()
	if err == nil && len(got) != len(ids) {
		err = fmt.Errorf("MGet of %d ids answered %d", len(ids), len(got))
	}
	return
}

func (w *clusterRouted) sample() (map[string]float64, error) {
	c, err := pipelineCounters(w.reg)
	if err != nil {
		return nil, err
	}
	for _, n := range w.nodes {
		nc, err := pipelineCounters(n.reg, n.m)
		if err != nil {
			return nil, err
		}
		for k, v := range nc {
			c[k] += v
		}
		serverCounters(c, n)
	}
	return c, nil
}

func (w *clusterRouted) measure(d time.Duration, tr *tracer) (*phase, error) {
	sc := w.in.sc
	before, err := w.sample()
	if err != nil {
		return nil, err
	}
	p := &phase{detail: map[string]float64{}}
	var (
		writeUs, mgetUs   []float64
		inWrites, inMGets time.Duration
	)
	ids := make([]int32, sc.clusterChunk)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		t0, t1, t2, err := w.oneRound(ids)
		if err != nil {
			return nil, err
		}
		p.lat = append(p.lat, us(t2.Sub(t0)))
		writeUs = append(writeUs, us(t1.Sub(t0)))
		mgetUs = append(mgetUs, us(t2.Sub(t1)))
		inWrites += t1.Sub(t0)
		inMGets += t2.Sub(t1)
		p.attempted += int64(2 * sc.clusterChunk)
		p.writes += int64(sc.clusterChunk)
		if tr != nil {
			f := int32(len(p.lat))
			id := tr.add(0, "client.flight", t0, t2, f)
			tr.add(id, "cluster.write_call", t0, t1, f)
			tr.add(id, "cluster.MGet", t1, t2, f)
		}
	}
	after, err := w.sample()
	if err != nil {
		return nil, err
	}
	p.counters = sub(after, before)
	p.ops = p.attempted
	p.rate = float64(p.ops) / (inWrites + inMGets).Seconds() // time inside the routed calls
	p.detail["client.write_edges_per_s"] = float64(p.writes) / inWrites.Seconds()
	p.detail["client.read_cmds_per_s"] = float64(p.writes) / inMGets.Seconds()
	// The routed calls are this workload's flights: a write call's
	// send→ack and an MGet's scatter-gather, as the caller sees them.
	p.setLatency("write_ack", writeUs)
	p.setLatency("read", mgetUs)
	return p, nil
}

// check holds every routed read to cluster.Oracle, the executable
// specification of what two mirrored shards must serve.
func (w *clusterRouted) check() error {
	o := cluster.NewOracle(w.sm)
	gone := make(map[graph.Edge]bool)
	for _, e := range w.churn.removed() {
		gone[e] = true
	}
	if w.env.corrupt {
		for _, e := range w.in.routed {
			if e.U == w.in.routed[0].U || e.V == w.in.routed[0].U {
				gone[e] = true
			}
		}
	}
	for _, e := range w.in.routed {
		// A removed edge still named its endpoints when it was inserted.
		o.ApplyInsert(e.U, e.V)
	}
	for e := range gone {
		o.ApplyRemove(e.U, e.V)
	}
	if got, want := w.c.N(), o.N(); got != want {
		return fmt.Errorf("cluster N = %d, oracle %d", got, want)
	}
	want := o.Cores()
	ids := make([]int32, len(want))
	for v := range ids {
		ids[v] = int32(v)
	}
	got, err := w.c.MGet(ids)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		bad := 0
		for v := range want {
			if got[v] != want[v] {
				bad++
			}
		}
		return fmt.Errorf("%d of %d routed core numbers differ from cluster.Oracle", bad, len(want))
	}
	hist, err := w.c.Hist()
	if err != nil {
		return err
	}
	if !slices.Equal(hist, o.Hist()) {
		return errors.New("routed Hist differs from cluster.Oracle")
	}
	mx, err := w.c.MaxCore()
	if err != nil {
		return err
	}
	if mx != o.MaxCore() {
		return fmt.Errorf("routed MaxCore = %d, oracle %d", mx, o.MaxCore())
	}
	return nil
}

func (w *clusterRouted) close() error {
	if w.c != nil {
		w.c.Close()
	}
	var errs []error
	for _, n := range w.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

func (w *clusterRouted) layers(r *result, untraced, traced *phase, tr *tracer) error {
	c := traced.counters
	r.set("kcore.new_s", w.nodes[0].newS+w.nodes[1].newS)
	setPipeline(r, c, w.nodes[0].m, w.nodes[1].m)
	setServer(r, c, w.nodes[0])
	r.set("cluster.fanout_s", c["fanout_s"])
	r.set("cluster.shard_requests", c["shard_requests"])
	r.set("cluster.shard_errors", c["shard_errors"])

	// Routing alone: owner lookup and local-id translation per edge.
	root := tr.add(0, "replay.cluster", time.Now(), time.Now(), 0)
	cross, sink := 0, int32(0)
	took := tr.call(root, "cluster.ShardMap.Owner+LocalFor", func() {
		for _, e := range w.in.routed {
			a, b := w.sm.Owner(e.U), w.sm.Owner(e.V)
			sink += w.sm.LocalFor(a, e.U) + w.sm.LocalFor(a, e.V)
			if a != b {
				sink += w.sm.LocalFor(b, e.U) + w.sm.LocalFor(b, e.V)
				cross++
			}
		}
	})
	_ = sink
	r.set("cluster.route_ns_per_edge", float64(took.Nanoseconds())/float64(len(w.in.routed)))
	r.set("cluster.cross_share", 100*float64(cross)/float64(len(w.in.routed)))
	stats, err := w.c.Stats()
	if err != nil {
		return err
	}
	var dials, replaced int64
	for _, s := range stats {
		dials += s.Pool.Dials
		replaced += s.Pool.Replaced
	}
	r.set("cluster.pool_dials", float64(dials))
	r.set("cluster.pool_replaced", float64(replaced))
	replayObs(r, tr, c)

	r.budget("cluster-routed round: one routed write call + one MGet", traced.lat, []budgetRow{
		{"cluster.write_call", mean(tr.durationsUs("cluster.write_call"))},
		{"cluster.MGet", mean(tr.durationsUs("cluster.MGet"))},
	})
	return nil
}
