package main

import (
	"fmt"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/kcore"
	"repro/obs"
)

// burstBatch is the paper's experiment (Fig. 4-6) through the public
// library API: large batches into a ParallelOrder maintainer, no
// network, no log. One round removes a slice of real edges and
// re-inserts it.
type burstBatch struct {
	in   *inputs
	env  *env
	m    *kcore.Maintainer
	reg  *obs.Registry
	newS float64
	next int // next slice to churn
}

func newBurstBatch(in *inputs, e *env) workload { return &burstBatch{in: in, env: e} }

func (b *burstBatch) slice(i int) []graph.Edge {
	s := b.in.sc.burstSlice
	return b.in.churn[i*s : (i+1)*s]
}

func (b *burstBatch) setup() error {
	g := b.in.social.Clone()
	start := time.Now()
	b.m = kcore.New(g, kcore.WithAlgorithm(kcore.ParallelOrder), kcore.WithWorkers(engineWorkers))
	b.newS = time.Since(start).Seconds()
	if b.env.metrics {
		b.reg = obs.NewRegistry()
		b.m.PipelineMetrics().Register(b.reg)
	}
	s := b.slice(0)
	if r := b.m.RemoveEdges(s); r.Applied != len(s) {
		return fmt.Errorf("warm-up removed %d of %d edges", r.Applied, len(s))
	}
	if r := b.m.InsertEdges(s); r.Applied != len(s) {
		return fmt.Errorf("warm-up inserted %d of %d edges", r.Applied, len(s))
	}
	return nil
}

// engineAgg sums what the engine reported in its BatchResults.
type engineAgg struct {
	insDur, remDur         time.Duration
	insApplied, remApplied int
	insWall, remWall       time.Duration // caller-observed call time
	changed                int
	vplusLE10, vplusN      int
	cont                   kcore.Contention
}

func (a *engineAgg) add(r kcore.BatchResult, wall time.Duration, insert bool) {
	if insert {
		a.insDur += r.Duration
		a.insApplied += r.Applied
		a.insWall += wall
	} else {
		a.remDur += r.Duration
		a.remApplied += r.Applied
		a.remWall += wall
	}
	a.changed += r.ChangedVertices
	for _, s := range r.VPlusSizes {
		if s <= 10 {
			a.vplusLE10++
		}
	}
	a.vplusN += len(r.VPlusSizes)
	a.cont.LockAborts += r.Contention.LockAborts
	a.cont.QueueRebuilds += r.Contention.QueueRebuilds
	a.cont.RemovalRedos += r.Contention.RemovalRedos
	a.cont.Evictions += r.Contention.Evictions
}

func (b *burstBatch) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{detail: map[string]float64{}}
	before, err := pipelineCounters(b.reg, b.m)
	if err != nil {
		return nil, err
	}
	var agg engineAgg
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		s := b.slice(b.next)
		b.next = (b.next + 1) % b.in.sc.burstSlices
		t0 := time.Now()
		rr := b.m.RemoveEdges(s)
		t1 := time.Now()
		ri := b.m.InsertEdges(s)
		t2 := time.Now()
		agg.add(rr, t1.Sub(t0), false)
		agg.add(ri, t2.Sub(t1), true)
		p.lat = append(p.lat, us(t2.Sub(t0)))
		p.attempted += int64(2 * len(s))
		p.failed += int64(2*len(s) - rr.Applied - ri.Applied)
		if tr != nil {
			f := int32(len(p.lat))
			id := tr.add(0, "client.flight", t0, t2, f)
			tr.add(id, "kcore.RemoveEdges", t0, t1, f)
			tr.add(id, "kcore.InsertEdges", t1, t2, f)
		}
	}
	after, err := pipelineCounters(b.reg, b.m)
	if err != nil {
		return nil, err
	}
	p.counters = sub(after, before)
	p.ops = p.attempted
	// Edges over time spent inside the calls: the generator's own
	// bookkeeping between calls is not the system's time.
	p.rate = float64(p.ops) / (agg.insWall + agg.remWall).Seconds()
	p.detail["client.insert_edges_per_s"] = float64(agg.insApplied) / agg.insWall.Seconds()
	p.detail["client.remove_edges_per_s"] = float64(agg.remApplied) / agg.remWall.Seconds()
	p.detail["client.write_edges_per_s"] = p.rate
	p.engine = &agg
	return p, nil
}

func (b *burstBatch) check() error {
	// Whole rounds leave the graph as generated, so the mirror is the
	// pristine graph.
	return equalCores(b.m.Snapshot().CoresInto(nil), mirrorOf(b.in.social, b.env))
}

func (b *burstBatch) close() error {
	b.m.Close()
	return nil
}

func (b *burstBatch) layers(r *result, untraced, traced *phase, tr *tracer) error {
	sc := b.in.sc
	a := traced.engine
	kedges := float64(a.insApplied+a.remApplied) / 1e3
	r.set("kcore.new_s", b.newS)
	r.set("kcore.apply_us_per_edge_insert", usPer(a.insDur, a.insApplied))
	r.set("kcore.apply_us_per_edge_remove", usPer(a.remDur, a.remApplied))
	r.set("kcore.vstar_per_edge", float64(a.changed)/(kedges*1e3))
	r.set("kcore.vplus_le10_share", 100*float64(a.vplusLE10)/float64(max(a.vplusN, 1)))
	r.set("kcore.lock_aborts_per_kedge", float64(a.cont.LockAborts)/kedges)
	r.set("kcore.queue_rebuilds_per_kedge", float64(a.cont.QueueRebuilds)/kedges)
	r.set("kcore.removal_redos_per_kedge", float64(a.cont.RemovalRedos)/kedges)
	r.set("kcore.evictions_per_kedge", float64(a.cont.Evictions)/kedges)
	setPipeline(r, traced.counters, b.m)

	root := tr.add(0, "replay.graph", time.Now(), time.Now(), 0)
	replayGraph(r, tr, root, b.in.social, b.in.churn)

	// Reference rows: the same slices through other engines and worker
	// counts, each on its own fresh maintainer, as ratios to the
	// ParallelOrder/2-worker time.
	root = tr.add(0, "replay.kcore", time.Now(), time.Now(), 0)
	ref := func(name string, g *graph.Graph, churn []graph.Edge, alg kcore.Algorithm, workers int) (ins, rem time.Duration, applied int) {
		m := kcore.New(g.Clone(), kcore.WithAlgorithm(alg), kcore.WithWorkers(workers))
		defer m.Close()
		for i := 0; i < sc.refRuns; i++ {
			s := churn[i*sc.burstSlice : (i+1)*sc.burstSlice]
			tr.call(root, name+".RemoveEdges", func() { rr := m.RemoveEdges(s); rem += rr.Duration; applied += rr.Applied })
			tr.call(root, name+".InsertEdges", func() { ri := m.InsertEdges(s); ins += ri.Duration })
		}
		return ins, rem, applied
	}
	ratio := func(a, b time.Duration) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	parI, parR, _ := ref("kcore.par2", b.in.social, b.in.churn, kcore.ParallelOrder, engineWorkers)
	w1I, w1R, _ := ref("kcore.par1", b.in.social, b.in.churn, kcore.ParallelOrder, 1)
	seqI, seqR, _ := ref("kcore.seq", b.in.social, b.in.churn, kcore.SequentialOrder, 1)
	jesI, jesR, _ := ref("kcore.jes", b.in.social, b.in.churn, kcore.JoinEdgeSet, engineWorkers)
	r.set("kcore.w1_over_w2_insert", ratio(w1I, parI))
	r.set("kcore.w1_over_w2_remove", ratio(w1R, parR))
	r.set("kcore.seq_over_par_insert", ratio(seqI, parI))
	r.set("kcore.seq_over_par_remove", ratio(seqR, parR))
	r.set("kcore.jes_over_par_insert", ratio(jesI, parI))
	r.set("kcore.jes_over_par_remove", ratio(jesR, parR))

	// The single-core-value case the paper headlines: every vertex of a
	// Barabási–Albert graph sits in one core.
	ba := gen.BarabasiAlbert(sc.baN, 4, sc.graphSeed)
	baChurn := gen.SampleEdges(ba, sc.refRuns*sc.burstSlice, b.in.seed+1)
	if len(baChurn) == sc.refRuns*sc.burstSlice {
		baI, baR, applied := ref("kcore.ba", ba, baChurn, kcore.ParallelOrder, engineWorkers)
		r.set("kcore.ba_apply_us_per_edge_insert", usPer(baI, applied))
		r.set("kcore.ba_apply_us_per_edge_remove", usPer(baR, applied))
	}

	c := traced.counters
	perBatch := func(key string) float64 { return 1e6 * c[key] / max(c["batches"], 1) }
	r.budget("burst-batch round: RemoveEdges + InsertEdges of one slice", traced.lat, []budgetRow{
		{"kcore.coalesce_wait (2 batches)", 2 * perBatch("coalesce_wait_s")},
		{"kcore.apply (2 batches)", 2 * perBatch("apply_s")},
		{"kcore.publish (2 batches)", 2 * perBatch("publish_s")},
	})
	return nil
}

func usPer(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}
