package expr

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/kcore"
)

func tinyConfig(buf *bytes.Buffer) Config {
	cfg := DefaultConfig(buf)
	cfg.Workers = []int{1, 2}
	cfg.Repeats = 1
	return cfg
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(ScaleCI, 1)
	if len(suite) != 16 {
		t.Fatalf("suite has %d graphs, want 16 (Table 2)", len(suite))
	}
	names := map[string]bool{}
	temporal := 0
	for _, sg := range suite {
		if names[sg.Name] {
			t.Fatalf("duplicate suite name %s", sg.Name)
		}
		names[sg.Name] = true
		if sg.Temporal {
			temporal++
		}
		g := sg.Build()
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", sg.Name)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("%s: %v", sg.Name, err)
		}
	}
	if temporal != 4 {
		t.Fatalf("%d temporal graphs, want 4", temporal)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := Suite(ScaleCI, 7)[0].Build()
	b := Suite(ScaleCI, 7)[0].Build()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("same seed must produce the same graph")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed must produce identical edges")
		}
	}
}

func TestSuiteByName(t *testing.T) {
	got, err := SuiteByName(ScaleCI, 1, "BA", "ER")
	if err != nil || len(got) != 2 || got[0].Name != "BA" || got[1].Name != "ER" {
		t.Fatalf("SuiteByName: %v %v", got, err)
	}
	if _, err := SuiteByName(ScaleCI, 1, "nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestBuildWorkload(t *testing.T) {
	suite := Suite(ScaleCI, 1)
	for _, sg := range []SuiteGraph{suite[0], suite[12]} { // one static, one temporal
		w := BuildWorkload(sg, 200, 5)
		if len(w.Batch) != 200 {
			t.Fatalf("%s: batch %d", sg.Name, len(w.Batch))
		}
		for _, e := range w.Batch {
			if !w.Base.HasEdge(e.U, e.V) {
				t.Fatalf("%s: batch edge %v not in base", sg.Name, e)
			}
		}
		without := w.WithoutBatch()
		if without.M() != w.Base.M()-int64(len(w.Batch)) {
			t.Fatalf("%s: WithoutBatch m=%d", sg.Name, without.M())
		}
	}
}

func TestRunTable2Output(t *testing.T) {
	var buf bytes.Buffer
	RunTable2(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"livej", "BA", "RMAT", "Max k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig1Output(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	RunFig1(tinyConfig(&buf))
	out := buf.String()
	if !strings.Contains(out, "0-10") || !strings.Contains(out, "paper claim") {
		t.Fatalf("Fig. 1 output malformed:\n%s", out)
	}
}

func TestRunFig4AndTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	// The second config has no 1-worker run: Table 3's low endpoint is the
	// lowest worker count measured, not a 1-worker point that is missing.
	for _, workers := range [][]int{{1, 2}, {2, 3}} {
		var buf bytes.Buffer
		cfg := tinyConfig(&buf)
		cfg.Workers = workers
		points := RunFig4(cfg)
		want := 16 * len(cfg.Workers) * 4
		if len(points) != want {
			t.Fatalf("fig4 points = %d, want %d", len(points), want)
		}
		// Table 3 reads every graph's four series at the lowest and the
		// highest worker count; an endpoint it cannot find reads as 0.
		for _, sg := range Suite(cfg.Scale, cfg.Seed) {
			for _, s := range paperSeries {
				for _, w := range []int{workers[0], workers[len(workers)-1]} {
					if !slices.ContainsFunc(points, func(p Fig4Point) bool {
						return p.Graph == sg.Name && p.Algorithm == s.name && p.Workers == w && p.Time.Mean > 0
					}) {
						t.Fatalf("workers %v: no timed Fig. 4 point for %s %s at %d workers", workers, sg.Name, s.name, w)
					}
				}
			}
		}
		buf.Reset()
		RunTable3(cfg, points)
		out := buf.String()
		ends := fmt.Sprintf("OurI %dw/%dw", workers[0], workers[1])
		if !strings.Contains(out, "OurI/JEI") || !strings.Contains(out, ends) {
			t.Fatalf("Table 3 output malformed (want %q):\n%s", ends, out)
		}
		// A missing endpoint zeroes its columns in every row. One cell can
		// print 0.0 on its own: on the tiny config an OurR/JER ratio under
		// 0.05 is a real, noisy measurement.
		rows := strings.Split(strings.TrimSpace(out), "\n")[2:]
		for col := 1; col <= 8; col++ {
			if !slices.ContainsFunc(rows, func(row string) bool { return strings.Fields(row)[col] != "0.0" }) {
				t.Fatalf("workers %v: Table 3 column %d reads 0.0 in every row:\n%s", workers, col, out)
			}
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []Scale{ScaleCI, ScaleMedium, ScaleFull} {
		if got, err := ParseScale(string(s)); err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseScale("small"); err == nil {
		t.Fatal(`ParseScale("small") must error`)
	}
}

func TestRunFig5Output(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	RunFig5(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"livej", "roadNet-CA", "10x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 5 output missing %q", want)
		}
	}
}

func TestRunFig6Output(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	RunFig6(tinyConfig(&buf))
	out := buf.String()
	if !strings.Contains(out, "spread") {
		t.Fatalf("Fig. 6 output missing spread summary:\n%s", out)
	}
}

func TestRunContentionOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	RunContention(tinyConfig(&buf))
	out := buf.String()
	if !strings.Contains(out, "aborts/edge") || !strings.Contains(out, "ins rebuilds") || !strings.Contains(out, "BA") {
		t.Fatalf("contention output malformed:\n%s", out)
	}
}

func TestRunMemoryOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	RunMemory(tinyConfig(&buf))
	out := buf.String()
	if !strings.Contains(out, "core.State OM") || !strings.Contains(out, "kcore.New total") {
		t.Fatalf("memory output malformed:\n%s", out)
	}
}

// The insert batches behind the CI-scale Fig. 4–6 curves — each suite
// graph's batch, Fig. 5's 1x–10x batches and Fig. 6's consecutive groups —
// never spend the engine's traversal budget, so those curves time
// Algorithm 7 and not the rebuild that would finish such a batch.
func TestPaperBatchesNeverRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every suite workload")
	}
	cfg := DefaultConfig(nil)
	_, base := cfg.Scale.params()
	workers := cfg.Workers[len(cfg.Workers)-1]
	ourI := paperSeries[0]
	batches := 0
	check := func(what string, res kcore.BatchResult) {
		t.Helper()
		batches++
		if res.Contention.Rebuilds != 0 {
			t.Fatalf("%s: the insert batch finished with a rebuild", what)
		}
	}
	for _, sg := range Suite(cfg.Scale, cfg.Seed) {
		w := BuildWorkload(sg, base, cfg.Seed)
		check(sg.Name, ourI.start(w, workers)(w.Batch))
	}
	suite, err := SuiteByName(cfg.Scale, cfg.Seed, fig5Graphs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range suite {
		for _, mult := range []int{2, 4, 6, 8, 10} {
			w := BuildWorkload(sg, base*mult, cfg.Seed)
			check(fmt.Sprintf("%s %dx", sg.Name, mult), ourI.start(w, workers)(w.Batch))
		}
		w := BuildWorkload(sg, base*10, cfg.Seed)
		step := ourI.start(w, workers)
		for gi := 0; gi+base <= len(w.Batch); gi += base {
			check(fmt.Sprintf("%s group at %d", sg.Name, gi), step(w.Batch[gi:gi+base]))
		}
	}
	t.Logf("%d insert batches, none rebuilt", batches)
}
