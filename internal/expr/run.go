package expr

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/graph"
	"repro/internal/bz"
	"repro/internal/stats"
	"repro/kcore"
)

// Config drives the experiment runners.
type Config struct {
	Scale   Scale
	Workers []int // worker counts for Fig. 4 / Table 3
	Repeats int   // measurement repetitions per point
	Seed    int64
	Out     io.Writer
}

// DefaultConfig returns CI-scale settings: worker counts 1..16, 3 repeats.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Scale:   ScaleCI,
		Workers: []int{1, 2, 4, 8, 16},
		Repeats: 3,
		Seed:    42,
		Out:     out,
	}
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// measure times fn() `repeats` times, re-preparing state via setup, and
// returns the summary in milliseconds.
func measure(repeats int, setup func() func()) stats.Summary {
	var ds []time.Duration
	for i := 0; i < repeats; i++ {
		run := setup()
		t0 := time.Now()
		run()
		ds = append(ds, time.Since(t0))
	}
	return stats.SummarizeDurations(ds)
}

// series is one curve of the paper's plots: an engine applying a
// workload's batch as an insertion or as a removal.
type series struct {
	name   string
	alg    kcore.Algorithm
	insert bool
}

// paperSeries are the four curves of Fig. 4–6 and Table 3: OurI/OurR
// (Parallel-Order) and JEI/JER (join-edge-set Traversal).
var paperSeries = []series{
	{"OurI", kcore.ParallelOrder, true},
	{"OurR", kcore.ParallelOrder, false},
	{"JEI", kcore.JoinEdgeSet, true},
	{"JER", kcore.JoinEdgeSet, false},
}

// start builds the maintainer s starts from — w without its batch for an
// insertion, all of w for a removal — and returns the step that applies a
// batch to it.
func (s series) start(w Workload, workers int) func([]graph.Edge) kcore.BatchResult {
	opts := []kcore.Option{kcore.WithAlgorithm(s.alg), kcore.WithWorkers(workers)}
	if s.insert {
		return kcore.New(w.WithoutBatch(), opts...).InsertEdges
	}
	return kcore.New(w.Base.Clone(), opts...).RemoveEdges
}

// measureSeries times step(w.Batch) on a fresh start of s, repeats times.
func measureSeries(repeats int, s series, w Workload, workers int) stats.Summary {
	return measure(repeats, func() func() {
		step := s.start(w, workers)
		return func() { step(w.Batch) }
	})
}

// ---------------------------------------------------------------- Table 2

// RunTable2 regenerates the graph-suite table: n, m, average degree and
// maximum core number of every stand-in.
func RunTable2(cfg Config) {
	cfg.printf("Table 2 — tested graphs (scale=%s; synthetic stand-ins, see DESIGN.md)\n", cfg.Scale)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Graph\tn=|V|\tm=|E|\tAvgDeg\tMax k\tStand-in")
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		g := sg.Build()
		cores, _ := bz.Decompose(g)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%d\t%s\n",
			sg.Name, g.N(), g.M(), g.AvgDegree(), bz.MaxCore(cores), sg.StandIn)
	}
	tw.Flush()
}

// ---------------------------------------------------------------- Fig. 1

// RunFig1 regenerates the |V+| / |V*| size distribution: it inserts and
// removes a batch with Parallel-Order on every suite graph and histograms
// the per-edge traversal sizes. The paper's headline observation — more
// than 97% of operations touch at most 10 vertices — is checked and
// reported.
func RunFig1(cfg Config) {
	_, batchSize := cfg.Scale.params()
	insHist := stats.NewHistogram([]int{10, 100, 1000})
	remHist := stats.NewHistogram([]int{10, 100, 1000})
	ourI, ourR := paperSeries[0], paperSeries[1]
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		w := BuildWorkload(sg, batchSize, cfg.Seed)
		insHist.AddAll(ourI.start(w, 16)(w.Batch).VPlusSizes)
		remHist.AddAll(ourR.start(w, 16)(w.Batch).VPlusSizes)
	}
	cfg.printf("Fig. 1 — sizes of V+ (insert) and V* (remove), Parallel-Order, all %d suite graphs\n", len(Suite(cfg.Scale, cfg.Seed)))
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size bucket\tinsert |V+|\tremove |V*|\tinsert %\tremove %")
	for i := range insHist.Counts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f%%\t%.2f%%\n",
			insHist.BucketLabel(i), insHist.Counts[i], remHist.Counts[i],
			100*insHist.Fraction(i), 100*remHist.Fraction(i))
	}
	tw.Flush()
	cfg.printf("paper claim (>97%% of operations have size <= 10): insert %.2f%%, remove %.2f%%\n",
		100*insHist.Fraction(0), 100*remHist.Fraction(0))
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Point is one measured point of the running-time curves.
type Fig4Point struct {
	Graph     string
	Algorithm string // OurI, OurR, JEI, JER
	Workers   int
	Time      stats.Summary // milliseconds
}

// RunFig4 measures the running time of OurI/OurR (Parallel-Order) and
// JEI/JER (join-edge-set Traversal) for every suite graph and worker count,
// printing one block per graph like the paper's 16 subplots. It returns the
// raw points so Table 3 can be derived from the same data.
func RunFig4(cfg Config) []Fig4Point {
	_, batchSize := cfg.Scale.params()
	var points []Fig4Point
	cfg.printf("Fig. 4 — running time (ms) vs workers, batch = %d edges, %d repeats\n", batchSize, cfg.Repeats)
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		w := BuildWorkload(sg, batchSize, cfg.Seed)
		cfg.printf("\n%s:\n", sg.Name)
		tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workers\tOurI\tOurR\tJEI\tJER")
		for _, workers := range cfg.Workers {
			var row [4]stats.Summary
			for i, s := range paperSeries {
				row[i] = measureSeries(cfg.Repeats, s, w, workers)
				points = append(points, Fig4Point{Graph: sg.Name, Algorithm: s.name, Workers: workers, Time: row[i]})
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", workers, row[0], row[1], row[2], row[3])
		}
		tw.Flush()
	}
	return points
}

// ---------------------------------------------------------------- Table 3

// RunTable3 derives the speedup table from Fig. 4 data (re-measuring if
// points is nil): per-algorithm speedups from the lowest to the highest
// measured worker count (cfg.Workers' endpoints), and Our-vs-JE speedups at
// both endpoints.
func RunTable3(cfg Config, points []Fig4Point) {
	if points == nil {
		quiet := cfg
		quiet.Out = io.Discard
		points = RunFig4(quiet)
	}
	minW, maxW := cfg.Workers[0], cfg.Workers[len(cfg.Workers)-1]
	get := func(g, alg string, w int) float64 {
		for _, p := range points {
			if p.Graph == g && p.Algorithm == alg && p.Workers == w {
				return p.Time.Mean
			}
		}
		return 0
	}
	cfg.printf("Table 3 — speedups (%d vs %d workers; Our vs JE)\n", minW, maxW)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	ends := fmt.Sprintf("%dw/%dw", minW, maxW)
	fmt.Fprintf(tw, "Graph\tOurI %s\tOurR %s\tJEI %s\tJER %s\tOurI/JEI %dw\tOurR/JER %dw\tOurI/JEI %dw\tOurR/JER %dw\n",
		ends, ends, ends, ends, minW, minW, maxW, maxW)
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		g := sg.Name
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n", g,
			stats.Speedup(get(g, "OurI", minW), get(g, "OurI", maxW)),
			stats.Speedup(get(g, "OurR", minW), get(g, "OurR", maxW)),
			stats.Speedup(get(g, "JEI", minW), get(g, "JEI", maxW)),
			stats.Speedup(get(g, "JER", minW), get(g, "JER", maxW)),
			stats.Speedup(get(g, "JEI", minW), get(g, "OurI", minW)),
			stats.Speedup(get(g, "JER", minW), get(g, "OurR", minW)),
			stats.Speedup(get(g, "JEI", maxW), get(g, "OurI", maxW)),
			stats.Speedup(get(g, "JER", maxW), get(g, "OurR", maxW)))
	}
	tw.Flush()
}

// ---------------------------------------------------------------- Fig. 5

// fig5Graphs are the four graphs the paper selects for the scalability and
// stability experiments.
var fig5Graphs = []string{"livej", "baidu", "dbpedia", "roadNet-CA"}

// RunFig5 regenerates the scalability experiment: runtime ratio relative to
// the base batch size as the batch grows from 1x to 10x, at the maximum
// worker count.
func RunFig5(cfg Config) {
	_, base := cfg.Scale.params()
	workers := cfg.Workers[len(cfg.Workers)-1]
	sizes := []int{1, 2, 4, 6, 8, 10}
	suite, err := SuiteByName(cfg.Scale, cfg.Seed, fig5Graphs...)
	if err != nil {
		panic(err)
	}
	cfg.printf("Fig. 5 — running-time ratio vs batch size (base = %d edges, %d workers)\n", base, workers)
	for _, sg := range suite {
		cfg.printf("\n%s:\n", sg.Name)
		tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "batch\tOurI ratio\tOurR ratio\tJEI ratio\tJER ratio")
		var baselines [4]float64
		for _, mult := range sizes {
			size := base * mult
			w := BuildWorkload(sg, size, cfg.Seed)
			var ratios [4]float64
			for i, s := range paperSeries {
				sum := measureSeries(cfg.Repeats, s, w, workers)
				if mult == sizes[0] {
					baselines[i] = sum.Mean
				}
				if b := baselines[i]; b > 0 {
					ratios[i] = sum.Mean / b
				}
			}
			fmt.Fprintf(tw, "%dx\t%.2f\t%.2f\t%.2f\t%.2f\n", mult, ratios[0], ratios[1], ratios[2], ratios[3])
		}
		tw.Flush()
	}
}

// ---------------------------------------------------------------- Fig. 6

// RunFig6 regenerates the stability experiment: disjoint batch groups are
// applied one after the other and the per-group runtime is reported; the
// paper's observation is that OurI/OurR/JER stay flat while JEI fluctuates.
func RunFig6(cfg Config) {
	_, batchSize := cfg.Scale.params()
	groups := 10
	if cfg.Scale == ScaleFull {
		groups = 50
	}
	workers := cfg.Workers[len(cfg.Workers)-1]
	suite, err := SuiteByName(cfg.Scale, cfg.Seed, fig5Graphs...)
	if err != nil {
		panic(err)
	}
	cfg.printf("Fig. 6 — per-group running time (ms), %d disjoint groups of %d edges, %d workers\n",
		groups, batchSize, workers)
	for _, sg := range suite {
		w := BuildWorkload(sg, batchSize*groups, cfg.Seed)
		if len(w.Batch) < batchSize*groups {
			groups = len(w.Batch) / batchSize
		}
		cfg.printf("\n%s:\n", sg.Name)
		tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "group\tOurI\tOurR\tJEI\tJER")
		rows := make([][4]float64, groups)
		for i, s := range paperSeries {
			step := s.start(w, workers)
			for gi := 0; gi < groups; gi++ {
				t0 := time.Now()
				step(w.Batch[gi*batchSize : (gi+1)*batchSize])
				rows[gi][i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}
		for gi := 0; gi < groups; gi++ {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.2f\n", gi+1,
				rows[gi][0], rows[gi][1], rows[gi][2], rows[gi][3])
		}
		tw.Flush()
		for i, ser := range paperSeries {
			var xs []float64
			for gi := 0; gi < groups; gi++ {
				xs = append(xs, rows[gi][i])
			}
			s := stats.Summarize(xs)
			cfg.printf("%s spread: mean %.2f ms, stddev %.2f, max/min %.2f\n",
				ser.name, s.Mean, s.StdDev, spreadRatio(s))
		}
	}
}

func spreadRatio(s stats.Summary) float64 {
	if s.Min <= 0 {
		return 0
	}
	return s.Max / s.Min
}

// RunAll runs every experiment in paper order, plus the contention report.
func RunAll(cfg Config) {
	RunTable2(cfg)
	cfg.printf("\n")
	RunFig1(cfg)
	cfg.printf("\n")
	RunContention(cfg)
	cfg.printf("\n")
	points := RunFig4(cfg)
	cfg.printf("\n")
	RunTable3(cfg, points)
	cfg.printf("\n")
	RunFig5(cfg)
	cfg.printf("\n")
	RunFig6(cfg)
}
