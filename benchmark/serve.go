package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/graph"
	"repro/internal/stats"
	"repro/kcore"
	"repro/persist"
	"repro/resp"
)

// served is what the three single-node network workloads share: one
// in-process kcored and the connections driving it.
type served struct {
	in    *inputs
	env   *env
	node  *node
	conns []*client.Conn
}

func (s *served) start(o nodeOpts, conns int) error {
	n, err := startNode(s.in.social.Clone(), o, s.env)
	if err != nil {
		return err
	}
	s.node = n
	for i := 0; i < conns; i++ {
		c, err := client.Dial(n.addr)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

func (s *served) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	if s.node == nil {
		return nil
	}
	return s.node.close()
}

// sample reads every counter the per-layer metrics take deltas of.
func (s *served) sample() (map[string]float64, error) {
	c, err := pipelineCounters(s.node.reg, s.node.m)
	if err != nil {
		return nil, err
	}
	serverCounters(c, s.node)
	if s.node.mgr != nil {
		persistCounters(c, s.node.mgr)
	}
	return c, nil
}

// checkServed sweeps every core number over the wire and compares with
// BZ on the mirror.
func (s *served) checkServed(mirror *graph.Graph) error {
	got, err := sweepCores(s.conns[0], mirror.N())
	if err != nil {
		return err
	}
	err = equalCores(got, mirror)
	if err != nil {
		// Say which side is off: the engine against its own graph
		// (Maintainer.Check), or its graph against the acked mirror.
		m := s.node.m
		err = fmt.Errorf("%w; engine self-check: %v; engine graph m=%d, mirror m=%d",
			err, m.Check(), m.Snapshot().M(), mirror.M())
	}
	return err
}

// parallel runs fn once per connection, concurrently, and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clientStats is what one closed-loop client goroutine observed in one
// phase.
type clientStats struct {
	lat               []float64 // µs per flight
	attempted, failed int64
	elapsed           time.Duration // first send to last reply
}

// addClients folds concurrent clients into the phase: their rates add
// up, their flights pool.
func (p *phase) addClients(stats []clientStats) {
	for i := range stats {
		p.rate += float64(stats[i].attempted) / stats[i].elapsed.Seconds()
		p.lat = append(p.lat, stats[i].lat...)
		p.attempted += stats[i].attempted
		p.failed += stats[i].failed
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setLatency records the median and the 99th percentile of one kind of
// flight ("read", "write_ack") under its client.* names.
func (p *phase) setLatency(kind string, flightsUs []float64) {
	pc := stats.ComputePercentiles(flightsUs)
	p.detail["client."+kind+"_p50_us"] = pc.P50
	p.detail["client."+kind+"_p99_us"] = pc.P99
}

// --- serve-read ---------------------------------------------------------------

// serveRead is two connections of pipelined point reads against a
// static graph: resp parse/write, server dispatch and conn handling,
// and the client do all the work.
type serveRead struct {
	served
	ids []*idStream
	seq []int // flights sent per connection, so every 8th is an MGET across phases
}

func newServeRead(in *inputs, e *env) workload {
	return &serveRead{served: served{in: in, env: e}}
}

func (w *serveRead) setup() error {
	if err := w.start(nodeOpts{workers: engineWorkers, connShards: -1}, 2); err != nil {
		return err
	}
	sc := w.in.sc
	for i, c := range w.conns {
		w.ids = append(w.ids, newIDStream(w.in.seed+100+int64(i), w.in.social.N()))
		w.seq = append(w.seq, 0)
		ids := make([]int32, sc.mgetIDs)
		w.ids[i].fill(ids)
		if _, failed, err := getFlight(c, ids[:sc.getDepth], w.in.cores); err != nil || failed > 0 {
			return fmt.Errorf("warm-up GET flight: %d wrong replies, err %v", failed, err)
		}
		if _, failed, err := mgetFlight(c, ids, w.in.cores); err != nil || failed > 0 {
			return fmt.Errorf("warm-up MGET flight: %d wrong replies, err %v", failed, err)
		}
	}
	return nil
}

func (w *serveRead) measure(d time.Duration, tr *tracer) (*phase, error) {
	sc := w.in.sc
	before, err := w.sample()
	if err != nil {
		return nil, err
	}
	stats := make([]clientStats, len(w.conns))
	deadline := time.Now().Add(d)
	err = parallel(len(w.conns), func(i int) error {
		cs, c := &stats[i], w.conns[i]
		ids := make([]int32, max(sc.getDepth, sc.mgetIDs))
		start := time.Now()
		for time.Now().Before(deadline) {
			w.seq[i]++
			var (
				ft     flightTimes
				failed int
				err    error
				n      = sc.getDepth
			)
			if w.seq[i]%sc.mgetEvery == 0 {
				n = sc.mgetIDs
				w.ids[i].fill(ids[:n])
				ft, failed, err = mgetFlight(c, ids[:n], w.in.cores)
			} else {
				// Only GET flights go into the latency sample: the p50
				// is the median of one flight shape, not of two.
				w.ids[i].fill(ids[:n])
				ft, failed, err = getFlight(c, ids[:n], w.in.cores)
				cs.lat = append(cs.lat, us(ft.done.Sub(ft.start)))
			}
			if err != nil {
				return err
			}
			cs.attempted += int64(n)
			cs.failed += int64(failed)
			if tr != nil {
				tr.flightSpans("", ft)
			}
		}
		cs.elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	after, err := w.sample()
	if err != nil {
		return nil, err
	}
	p := &phase{detail: map[string]float64{}, counters: sub(after, before)}
	p.addClients(stats)
	p.ops = p.attempted
	p.detail["client.read_cmds_per_s"] = p.rate
	p.setLatency("read", p.lat)
	return p, nil
}

func (w *serveRead) check() error { return w.checkServed(mirrorOf(w.in.social, w.env)) }

func (w *serveRead) layers(r *result, untraced, traced *phase, tr *tracer) error {
	sc := w.in.sc
	r.set("kcore.new_s", w.node.newS)
	setPipeline(r, traced.counters, w.node.m)
	if err := replayServer(r, tr, w.node, traced.counters); err != nil {
		return err
	}

	// kcore: the snapshot read under every CORE.GET.
	root := tr.add(0, "replay.kcore", time.Now(), time.Now(), 0)
	ids := make([]int32, 1<<16)
	newIDStream(w.in.seed+200, w.in.social.N()).fill(ids)
	const reads = 5_000_000
	var sink int32
	took := tr.call(root, "kcore.Maintainer.CoreOf", func() {
		for i := 0; i < reads; i++ {
			sink += w.node.m.CoreOf(ids[i&(len(ids)-1)])
		}
	})
	_ = sink
	coreofNs := float64(took.Nanoseconds()) / reads
	r.set("kcore.coreof_ns", coreofNs)

	stream := newIDStream(w.in.seed+300, w.in.social.N())
	one := make([]int32, 1)
	parseNs, writeNs := replayCodec(r, tr, func(c *client.Conn) int {
		for i := 0; i < sc.getDepth; i++ {
			stream.fill(one)
			c.SendInt32s("CORE.GET", one)
		}
		return sc.getDepth
	}, func(wr *resp.Writer, cmds int) {
		for i := 0; i < cmds; i++ {
			wr.WriteInt(int64(w.in.cores[i%len(w.in.cores)]))
		}
	})
	replayObs(r, tr, traced.counters)

	depth := float64(sc.getDepth)
	r.budget("serve-read GET flight", traced.lat, []budgetRow{
		{"client.send", mean(tr.durationsUs("client.send"))},
		{"client.receive", mean(tr.durationsUs("client.receive"))},
		{"resp.parse x depth", parseNs * depth / 1e3},
		{"kcore.coreof x depth", coreofNs * depth / 1e3},
		{"resp.write_int x depth", writeNs * depth / 1e3},
	})
	r.set("server.residual_ns_per_get", 1e3*r.Metrics["budget.unexplained_us"]/depth)
	return nil
}

// --- serve-write-durable --------------------------------------------------------

// serveWriteDurable is acked-durable writes: two connections of small
// single-edge write flights with an fsync before every ack, checkpoint
// cycles included, then a recovery of a copy taken while the server is
// still live.
type serveWriteDurable struct {
	served
	churn    []*churner
	recoverS float64 // persist.Recover + kcore.New on the copy
	readS    float64 // persist.Recover alone
}

func newServeWriteDurable(in *inputs, e *env) workload {
	return &serveWriteDurable{served: served{in: in, env: e}}
}

func (w *serveWriteDurable) setup() error {
	sc := w.in.sc
	err := w.start(nodeOpts{
		workers: writeNodeWorkers, connShards: -1, dir: w.env.newDir("durable"),
		persist: &persist.Options{Fsync: persist.FsyncAlways, CheckpointOps: sc.checkpointOps},
	}, 2)
	if err != nil {
		return err
	}
	for i, c := range w.conns {
		ch := newChurner(w.in.churn[i*sc.durableSlice:(i+1)*sc.durableSlice], sc.durableDepth, sc.churnBlock)
		w.churn = append(w.churn, ch)
		if _, failed, err := writeChunk(c, ch); err != nil || failed > 0 {
			return fmt.Errorf("warm-up write flight: %d bad replies, err %v", failed, err)
		}
	}
	return nil
}

// writeChunk sends the churner's next chunk as one write flight.
func writeChunk(c *client.Conn, ch *churner) (flightTimes, int, error) {
	es, ins := ch.next()
	if ins {
		return writeFlight(c, "CORE.INSERT", es)
	}
	return writeFlight(c, "CORE.REMOVE", es)
}

// writeLoop is one closed-loop writer: flights until the deadline.
func writeLoop(c *client.Conn, ch *churner, cs *clientStats, deadline time.Time, tr *tracer) error {
	start := time.Now()
	for time.Now().Before(deadline) {
		ft, failed, err := writeChunk(c, ch)
		if err != nil {
			return err
		}
		cs.lat = append(cs.lat, us(ft.done.Sub(ft.start)))
		cs.attempted += int64(ch.chunk)
		cs.failed += int64(failed)
		if tr != nil {
			tr.flightSpans("", ft)
		}
	}
	cs.elapsed = time.Since(start)
	return nil
}

func (w *serveWriteDurable) measure(d time.Duration, tr *tracer) (*phase, error) {
	before, err := w.sample()
	if err != nil {
		return nil, err
	}
	stats := make([]clientStats, len(w.conns))
	deadline := time.Now().Add(d)
	err = parallel(len(w.conns), func(i int) error {
		return writeLoop(w.conns[i], w.churn[i], &stats[i], deadline, tr)
	})
	if err != nil {
		return nil, err
	}
	after, err := w.sample()
	if err != nil {
		return nil, err
	}
	p := &phase{detail: map[string]float64{}, counters: sub(after, before)}
	p.addClients(stats)
	p.ops, p.writes = p.attempted, p.attempted
	p.detail["client.write_edges_per_s"] = p.rate
	p.setLatency("write_ack", p.lat)
	return p, nil
}

func (w *serveWriteDurable) check() error {
	mirror := mirrorOf(w.in.social, w.env, w.churn...)
	if err := w.checkServed(mirror); err != nil {
		return err
	}
	// Every flight was acked, so acked = sent and the recovered edge set
	// must equal the mirror exactly (acked ⊆ recovered ⊆ sent).
	cp := w.env.newDir("recover")
	defer os.RemoveAll(cp)
	if err := copyLive(w.node, cp); err != nil {
		return err
	}
	start := time.Now()
	res, err := persist.Recover(cp)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	w.readS = time.Since(start).Seconds()
	if res.Graph == nil {
		return errors.New("recover: copied directory holds no checkpoint")
	}
	m := kcore.New(res.Graph, kcore.WithAlgorithm(kcore.ParallelOrder), kcore.WithWorkers(writeNodeWorkers))
	w.recoverS = time.Since(start).Seconds()
	defer m.Close()
	if res.Truncated || res.TornBytes != 0 {
		return fmt.Errorf("recover: truncated=%v, %d torn bytes in a cleanly synced log", res.Truncated, res.TornBytes)
	}
	g := m.Graph()
	if g.N() != mirror.N() || g.M() != mirror.M() {
		return fmt.Errorf("recovered n=%d m=%d, acked mirror has n=%d m=%d", g.N(), g.M(), mirror.N(), mirror.M())
	}
	for _, e := range mirror.Edges() {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("acked edge (%d,%d) missing after recovery", e.U, e.V)
		}
	}
	if err := equalCores(m.Snapshot().CoresInto(nil), mirror); err != nil {
		return fmt.Errorf("recovered: %w", err)
	}
	return nil
}

// copyLive copies the durability directory of a serving node the way a
// crash would freeze it. No write is in flight, so the only thing that
// can move under the copy is a background checkpoint; the directory is
// fresh, so generation == completed checkpoints exactly when none is
// running, and a copy bracketed by two such readings is consistent.
func copyLive(n *node, dst string) error {
	idle := func() (persist.Stats, bool) {
		st := n.mgr.Stats()
		return st, int64(st.Gen) == st.Checkpoints && st.OpsSinceCheckpoint < n.ckptOps
	}
	for try := 0; try < 100; try++ {
		before, ok := idle()
		if ok {
			err := copyDir(n.dir, dst)
			if after, ok := idle(); err == nil && ok && after.Gen == before.Gen {
				return nil
			}
			os.RemoveAll(dst)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return errors.New("durability directory kept rotating; no consistent copy after 5 s")
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWriteDurable) layers(r *result, untraced, traced *phase, tr *tracer) error {
	r.set("persist.recover_read_s", w.readS)
	r.set("persist.recover_s", w.recoverS)
	return w.writeLayers(r, traced, tr, w.in.churn, w.in.sc.durableDepth, "serve-write-durable write flight", traced.lat)
}

// writeLayers is the per-layer half shared by the two durable write
// workloads: pipeline, persist, server, codec and the write budget.
func (s *served) writeLayers(r *result, traced *phase, tr *tracer, edges []graph.Edge, depth int, title string, flightsUs []float64) error {
	c := traced.counters
	r.set("kcore.new_s", s.node.newS)
	setPipeline(r, c, s.node.m)
	if err := setPersist(r, c, s.node, traced.writes); err != nil {
		return err
	}
	if err := replayServer(r, tr, s.node, c); err != nil {
		return err
	}
	root := tr.add(0, "replay.kcore", time.Now(), time.Now(), 0)
	replayBatch8(r, tr, root, s.in.social, edges, depth, s.in.sc.churnBlock)
	if err := replayPersist(r, tr, s.env.workDir, edges, depth); err != nil {
		return err
	}
	ch := newChurner(edges, depth, s.in.sc.churnBlock)
	var pair [2]int32
	parseNs, writeNs := replayCodec(r, tr, func(cc *client.Conn) int {
		es, ins := ch.next()
		cmd := "CORE.REMOVE"
		if ins {
			cmd = "CORE.INSERT"
		}
		for _, e := range es {
			pair[0], pair[1] = e.U, e.V
			cc.SendInt32s(cmd, pair[:])
		}
		return len(es)
	}, func(wr *resp.Writer, cmds int) {
		for i := 0; i < cmds; i++ {
			wr.WriteInt(int64(depth))
		}
	})
	replayObs(r, tr, c)

	perBatch := func(key string) float64 { return 1e6 * c[key] / max(c["batches"], 1) }
	r.budget(title, flightsUs, []budgetRow{
		{"client.send", mean(tr.durationsUs("client.send"))},
		{"client.receive", mean(tr.durationsUs("client.receive"))},
		{"resp.parse x depth", parseNs * float64(depth) / 1e3},
		{"kcore.coalesce_wait per batch", perBatch("coalesce_wait_s")},
		{"kcore.apply per batch (log append inside)", perBatch("apply_s")},
		{"kcore.publish per batch", perBatch("publish_s")},
		{"resp.write_int x depth", writeNs * float64(depth) / 1e3},
	})
	r.logf("  (persist.fsync per fsync: %.2f us, inside kcore.apply)", 1e6*c["fsync_s"]/max(c["fsyncs"], 1))
	return nil
}

// --- serve-mixed ----------------------------------------------------------------

// serveMixed is reads beside writes on two shared cores: connection A
// writes closed-loop, connection B reads open-loop on a fixed schedule
// and times every flight from when it was due.
type serveMixed struct {
	served
	churn *churner
	ids   *idStream
}

func newServeMixed(in *inputs, e *env) workload {
	return &serveMixed{served: served{in: in, env: e}}
}

func (w *serveMixed) setup() error {
	sc := w.in.sc
	err := w.start(nodeOpts{
		workers: writeNodeWorkers, connShards: -1, dir: w.env.newDir("mixed"),
		persist: &persist.Options{Fsync: persist.FsyncEverySec},
	}, 2)
	if err != nil {
		return err
	}
	w.churn = newChurner(w.in.churn[:sc.mixedSlice], sc.mixedDepth, sc.churnBlock)
	w.ids = newIDStream(w.in.seed+100, w.in.social.N())
	if _, failed, err := writeChunk(w.conns[0], w.churn); err != nil || failed > 0 {
		return fmt.Errorf("warm-up write flight: %d bad replies, err %v", failed, err)
	}
	ids := make([]int32, sc.getDepth)
	w.ids.fill(ids)
	if _, failed, err := getFlight(w.conns[1], ids, nil); err != nil || failed > 0 {
		return fmt.Errorf("warm-up GET flight: %d bad replies, err %v", failed, err)
	}
	return nil
}

func (w *serveMixed) measure(d time.Duration, tr *tracer) (*phase, error) {
	sc := w.in.sc
	before, err := w.sample()
	if err != nil {
		return nil, err
	}
	var (
		wr, rd   clientStats
		lateness []float64 // µs between a read flight's due time and its send
		late     int       // flights sent more than one interval late
		stop     atomic.Bool
	)
	start := time.Now()
	deadline := start.Add(d)
	err = parallel(2, func(i int) error {
		if i == 0 {
			defer stop.Store(true)
			return writeLoop(w.conns[0], w.churn, &wr, deadline, tr)
		}
		// Open loop: flight k is due at start + k*interval whatever
		// happened to flight k-1; a late generator catches up back to
		// back, and every flight is timed from its due time.
		ids := make([]int32, sc.getDepth)
		for k := 0; !stop.Load(); k++ {
			due := start.Add(time.Duration(k) * sc.mixedInterval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			w.ids.fill(ids)
			ft, failed, err := getFlight(w.conns[1], ids, nil)
			if err != nil {
				return err
			}
			rd.lat = append(rd.lat, us(ft.done.Sub(due)))
			lateness = append(lateness, us(ft.start.Sub(due)))
			if ft.start.Sub(due) > sc.mixedInterval {
				late++
			}
			rd.attempted += int64(len(ids))
			rd.failed += int64(failed)
			if tr != nil {
				tr.flightSpans(".read", ft)
			}
		}
		return nil
	})
	readerWall := time.Since(start)
	if err != nil {
		return nil, err
	}
	after, err := w.sample()
	if err != nil {
		return nil, err
	}
	p := &phase{detail: map[string]float64{}, counters: sub(after, before)}
	p.rate = float64(wr.attempted) / wr.elapsed.Seconds()
	p.lat = rd.lat
	p.ops = wr.attempted
	p.attempted = wr.attempted + rd.attempted
	p.writes = wr.attempted
	p.failed = wr.failed + rd.failed
	p.lat2 = wr.lat
	p.detail["client.write_edges_per_s"] = p.rate
	p.setLatency("write_ack", wr.lat)
	p.detail["client.read_cmds_per_s"] = float64(rd.attempted) / readerWall.Seconds()
	p.setLatency("read", rd.lat)
	p.detail["client.read_late_p99_us"] = stats.Quantile(lateness, 0.99)
	p.detail["client.generator_late_share"] = 100 * float64(late) / float64(max(len(lateness), 1))
	return p, nil
}

func (w *serveMixed) check() error {
	return w.checkServed(mirrorOf(w.in.social, w.env, w.churn))
}

func (w *serveMixed) layers(r *result, untraced, traced *phase, tr *tracer) error {
	return w.writeLayers(r, traced, tr, w.in.churn[:w.in.sc.mixedSlice], w.in.sc.mixedDepth,
		"serve-mixed write flight (connection A)", traced.lat2)
}
