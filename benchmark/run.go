package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// workload is one of the five traffic shapes. The harness owns the
// order of calls: setup (timed, repeated), measure (once untraced, and
// once more with a tracer on a traced run), check, layers, close.
type workload interface {
	// setup stands the system up through its public constructors and
	// answers one warm-up pass of the workload's shape.
	setup() error
	// measure drives load for about d and returns what the client saw.
	// A non-nil tracer records a span per flight.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// check sweeps every served core number and requires equality with
	// the BZ oracle on the generator's acked-edge mirror.
	check() error
	// layers fills the per-layer metrics of a traced run: counter
	// deltas over the traced phase and replays of each layer's public
	// calls on the inputs the workload used.
	layers(r *result, untraced, traced *phase, tr *tracer) error
	close() error
}

// phase is what one measured phase produced.
type phase struct {
	wall      time.Duration
	ops       int64     // operations, in the workload's own op (see workloadDefs)
	rate      float64   // ops per second: each client's ops over its own elapsed time, summed
	lat       []float64 // µs, every flight of the kind client.op_p50_us is about
	lat2      []float64 // µs samples of the workload's other flight kind, if it has one
	writes    int64     // acked write edges, for the persist ratios
	attempted int64
	failed    int64
	// detail carries the client-observed figures by per-layer metric
	// name (client.*, cluster.*_call_*), from this phase alone.
	detail map[string]float64
	// counters are layer counters sampled when the phase ended minus
	// when it began, by the workload's own keys.
	counters map[string]float64
	engine   *engineAgg    // burst-batch: what the engine reported per batch
	cpu      time.Duration // process user+sys over the phase
	mem      memDelta
}

type memDelta struct {
	mallocs, bytes uint64
	gcPauseNs      uint64
	gcCycles       uint32
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	lines     []string           // human-readable report
}

// set records a metric. Only names declared in spec.go may be emitted.
func (r *result) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = v
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	spans    string // span file of a traced run ("" = none)
	workDir  string
	corrupt  bool // test hook: damage the mirror so the oracle must fail
}

// A run sets its system up at least minSetups times and keeps going, up
// to maxSetups, while the set-ups so far took less than setupBudget;
// setup_s is their median. Cheap set-ups are the noisy ones, and get
// the most repeats.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 1500 * time.Millisecond
)

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after a forced collection. HeapAlloc, not
// HeapInuse: the spans a collection leaves partly filled depend on when
// the collector last ran, and moved the figure by ±3% on identical runs.
func liveHeapMB() float64 {
	// Twice: the first cycle runs the cleanups that stop abandoned
	// appliers, the second collects what they were holding.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measured wraps a workload's measure with the process-level deltas.
func measured(w workload, d time.Duration, tr *tracer) (*phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	p, err := w.measure(d, tr)
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	p.mem = memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
		gcCycles:  after.NumGC - before.NumGC,
	}
	return p, nil
}

// runWorkload runs one workload once and returns its result. An oracle
// mismatch is reported in the result (Correct=false), not as an error;
// errors are failures to run at all.
func runWorkload(cfg runConfig) (res *result, err error) {
	def, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}
	in, err := buildInputs(cfg.workload, cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &env{workDir: cfg.workDir, metrics: cfg.trace, corrupt: cfg.corrupt}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times: what it costs to go from a generated graph
	// to a system that has answered its first flights. Only the last
	// system is kept.
	var (
		w      workload
		setupS []float64
	)
	defer func() {
		if w != nil {
			if cerr := w.close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("teardown: %w", cerr)
			}
		}
	}()
	var setupTotal time.Duration
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < setupBudget); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				w = nil
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		w = def.new(in, e)
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		setupTotal += took
		setupS = append(setupS, took.Seconds())
	}
	heapSetup := liveHeapMB()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced *phase
	var tr *tracer
	if cfg.trace {
		// Half the time untraced, half traced: the first half gives the
		// client-observed figures, the pair gives the tracing overhead.
		d /= 2
	}
	if untraced, err = measured(w, d, nil); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if cfg.trace {
		tr = newTracer()
		if traced, err = measured(w, d, tr); err != nil {
			return nil, fmt.Errorf("traced measure: %w", err)
		}
	}

	r.Correct = true
	if err := w.check(); err != nil {
		r.Correct = false
		r.logf("ORACLE MISMATCH: %v", err)
		// On standard error too: a driver that keeps only the result line
		// would otherwise lose the one message that says what was wrong.
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: oracle mismatch: %v\n", cfg.workload, cfg.seed, err)
	} else {
		r.logf("oracle: every served core number equals BZ on the acked-edge mirror")
	}

	r.Attempted, r.Failed = untraced.attempted, untraced.failed
	if traced != nil {
		r.Attempted += traced.attempted
		r.Failed += traced.failed
	}
	p50 := median(untraced.lat)
	tailPct, tailUs := highestTail(untraced.lat)
	flights := len(untraced.lat)
	if !cfg.trace {
		// The generator's latency samples grow with the flights a run
		// got through (5 MB on serve-read); they are not memory the
		// system holds, so they go before the heap is read.
		untraced.lat, untraced.lat2 = nil, nil
	}
	heapRun := liveHeapMB()
	r.logf("set-up %s s (median of %d), input generation %.3f s", fmtList(setupS), len(setupS), in.buildS)
	ops := float64(max(untraced.ops, 1))
	r.logf("measured %.2f s: %d ops, %.0f ops/s; %.2f allocs and %.0f B allocated per op; %.2f us CPU per op",
		untraced.wall.Seconds(), untraced.ops, untraced.rate, float64(untraced.mem.mallocs)/ops,
		float64(untraced.mem.bytes)/ops, float64(untraced.cpu.Microseconds())/ops)
	if tailPct > 50 {
		r.logf("flight latency: p50 %.1f us, p%g %.1f us, %d flights", p50, tailPct, tailUs, flights)
	} else {
		r.logf("flight latency: p50 %.1f us, %d flights (too few for a tail)", p50, flights)
	}
	failedShare := 100 * float64(r.Failed) / float64(max(r.Attempted, 1))
	r.logf("failed_ops_share %g %% (failed %d of %d attempted)", failedShare, r.Failed, r.Attempted)

	if !cfg.trace {
		r.set("setup_s", median(setupS))
		r.set("ops_per_s", untraced.rate)
		r.set("op_p50_us", p50)
		r.set("allocs_per_op", float64(untraced.mem.mallocs)/ops)
		r.set("heap_after_setup_mb", heapSetup)
		r.set("heap_after_run_mb", heapRun)
		return r, nil
	}

	for _, d := range perLayer {
		r.set(d.Name, 0) // a layer the workload leaves idle reports 0
	}
	r.set("graph.build_s", in.buildS)
	for name, v := range untraced.detail {
		r.set(name, v)
	}
	ops = float64(max(traced.ops, 1))
	r.set("process.cpu_us_per_op", float64(traced.cpu.Microseconds())/ops)
	r.set("process.bytes_per_op", float64(traced.mem.bytes)/ops)
	r.set("process.gc_pause_ms", float64(traced.mem.gcPauseNs)/1e6)
	r.set("process.gc_cycles", float64(traced.mem.gcCycles))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("process.peak_heap_mb", float64(ms.HeapSys)/(1<<20))
	if traced.rate > 0 {
		r.set("trace.overhead_share", 100*(untraced.rate/traced.rate-1))
	}
	r.set("client.failed_ops_share", failedShare)
	if err := w.layers(r, untraced, traced, tr); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	if cfg.spans != "" {
		if err := tr.writeFile(cfg.spans); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		r.logf("%d spans written to %s", len(tr.spans), cfg.spans)
	}
	return r, nil
}

// budget prints the flight budget table: the client-observed flight
// beside the priced parts of the chain it waited on, and what they
// leave unexplained (network, syscalls, scheduling, dispatch). Every
// figure is a mean over the traced phase — means add up along a chain,
// medians do not — with the flight's median printed for reference.
func (r *result) budget(title string, flightsUs []float64, rows []budgetRow) {
	var sum float64
	r.logf("budget — %s (mean us per flight)", title)
	for _, row := range rows {
		r.logf("  %-44s %10.2f", row.name, row.us)
		sum += row.us
	}
	flight := mean(flightsUs)
	r.logf("  %-44s %10.2f", "= explained", sum)
	r.logf("  %-44s %10.2f   (p50 %.2f, %d flights)", "client-observed flight", flight, median(flightsUs), len(flightsUs))
	r.logf("  %-44s %10.2f", "unexplained remainder", flight-sum)
	r.set("budget.flight_mean_us", flight)
	r.set("budget.explained_us", sum)
	r.set("budget.unexplained_us", flight-sum)
}

type budgetRow struct {
	name string
	us   float64
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
