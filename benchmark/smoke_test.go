package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/graph"
)

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	cfg := runConfig{workload: workload, seed: 1, seconds: 0.5, sc: scales["smoke"], trace: trace,
		workDir: filepath.Join(t.TempDir(), "work")}
	if trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.json")
	}
	return cfg
}

// checkMetrics requires r to carry exactly the declared metrics, each
// finite; end-to-end metrics must also never be 0.
func checkMetrics(t *testing.T, r *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !r.Correct {
		t.Errorf("oracle check failed:\n%s", strings.Join(r.lines, "\n"))
	}
	if r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("attempted %d, failed %d; want at least one op and no failure", r.Attempted, r.Failed)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s (%s) not emitted", d.Name, d.Unit)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("metric %s = %v", d.Name, v)
		case nonZero && v <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v)
		}
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
}

// TestSmoke runs every workload end to end at smoke scale, so no
// workload or metric name in BENCHMARK.json can rot.
func TestSmoke(t *testing.T) {
	for _, d := range workloadDefs {
		t.Run(d.Name, func(t *testing.T) {
			r, err := runWorkload(smokeConfig(t, d.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, endToEnd, true)
		})
	}
}

// TestSmokeTraced runs the traced mode and checks the layers a workload
// bypasses really report no work.
func TestSmokeTraced(t *testing.T) {
	idle := map[string][]string{
		"burst-batch": {"resp.parse_ns_per_cmd", "server.commands", "persist.fsyncs", "persist.records",
			"client.send_ns_per_cmd", "cluster.shard_requests"},
		"serve-read": {"kcore.batches", "persist.fsyncs", "cluster.shard_requests"},
	}
	busy := map[string][]string{
		"burst-batch":         {"kcore.apply_us_per_edge_insert", "kcore.batches", "kcore.w1_over_w2_insert", "graph.add_edge_ns"},
		"serve-read":          {"resp.parse_ns_per_cmd", "server.commands", "client.read_p50_us", "kcore.coreof_ns", "obs.series"},
		"serve-write-durable": {"persist.fsyncs", "persist.recover_s", "kcore.ops_per_batch", "client.write_ack_p50_us"},
		"serve-mixed":         {"client.read_p50_us", "client.write_edges_per_s", "persist.records"},
		"cluster-routed":      {"cluster.shard_requests", "cluster.route_ns_per_edge", "cluster.pool_dials"},
	}
	for _, d := range workloadDefs {
		if testing.Short() && idle[d.Name] == nil {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			cfg := smokeConfig(t, d.Name, true)
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, perLayer, false)
			for _, name := range idle[d.Name] {
				if v := r.Metrics[name]; v != 0 {
					t.Errorf("%s = %v on %s, want 0: the workload bypasses that layer", name, v, d.Name)
				}
			}
			for _, name := range busy[d.Name] {
				if v := r.Metrics[name]; v <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, v, d.Name)
				}
			}
			var spans []span
			b, err := os.ReadFile(cfg.spans)
			if err == nil {
				err = json.Unmarshal(b, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Fatalf("span file: %d spans, err %v", len(spans), err)
			}
			if got := strings.Join(r.lines, "\n"); !strings.Contains(got, "unexplained remainder") {
				t.Errorf("no budget table in the report:\n%s", got)
			}
		})
	}
}

// TestOracleCatchesCorruptMirror damages the generator's mirror and
// requires the run to come back incorrect (main then exits non-zero).
func TestOracleCatchesCorruptMirror(t *testing.T) {
	for _, name := range []string{"burst-batch", "serve-mixed", "cluster-routed"} {
		cfg := smokeConfig(t, name, false)
		cfg.corrupt = true
		r, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct {
			t.Errorf("%s: oracle passed against a corrupted mirror", name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go")

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go, byte
// for byte, and the tables to the contract's limits.
// `go test ./benchmark -run TestBenchmarkJSON -update` rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: omitted when 0
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadDefs) > 8 || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d workloads, %d s exceed the contract",
			len(perLayer), len(endToEnd), len(workloadDefs), runSeconds)
	}
	seen, setup := map[string]bool{}, false
	for _, d := range allMetrics() {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Bound > 0.25 {
			t.Errorf("metric %q (unit %q, bound %v) is repeated or outside the contract", d.Name, d.Unit, d.Bound)
		}
		seen[d.Name] = true
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("no end-to-end setup_s in seconds, lower is better")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20, 40, 80, 160}, [3]float64{15, 40, 120}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 70, 100, 130}
	for _, c := range []struct {
		d              metricDef
		parent, change []float64
		want           string
	}{
		{lower, steady, []float64{100, 100, 101, 99, 100}, "same"},
		{lower, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{higher, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 122}, "better"},
		{lower, noisy, []float64{120, 121, 119, 120, 122}, "unresolved"},
	} {
		if _, _, _, got := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.parent, c.change, got, c.want)
		}
	}
}

// TestChurner replays a churner against a set and requires removed() to
// be that set at every step, removes and inserts to alternate block by
// block, and every edge of the slice to be visited.
func TestChurner(t *testing.T) {
	edges := make([]graph.Edge, 50)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 100)}
	}
	c := newChurner(edges, 4, 10) // a chunk that does not divide the block
	gone, touched := map[graph.Edge]bool{}, map[graph.Edge]bool{}
	var ins, rem int
	for step := 0; step < 200; step++ {
		es, inserting := c.next()
		for _, e := range es {
			if gone[e] != inserting {
				t.Fatalf("step %d: edge %v inserting=%v but removed=%v", step, e, inserting, gone[e])
			}
			gone[e] = !inserting
			touched[e] = true
			if inserting {
				ins++
			} else {
				rem++
			}
		}
		held := 0
		for _, e := range c.removed() {
			if !gone[e] {
				t.Fatalf("step %d: removed() lists %v, which is in the graph", step, e)
			}
			held++
		}
		for _, g := range gone {
			if g {
				held--
			}
		}
		if held != 0 || len(c.removed()) > 10 {
			t.Fatalf("step %d: removed() has %d edges, off by %d", step, len(c.removed()), held)
		}
	}
	if d := rem - ins; d < 0 || d > 10 || len(touched) != len(edges) {
		t.Errorf("%d removes, %d inserts, %d of %d edges touched", rem, ins, len(touched), len(edges))
	}
}

// TestCompareGates requires -compare to fail on more failed operations
// and on an incorrect run, and to refuse files of different run lengths.
func TestCompareGates(t *testing.T) {
	file := func(seconds float64, failed int64, correct bool) *runFile {
		f := &runFile{Stamp: stamp{Scale: "smoke", Seconds: seconds}}
		for i := 0; i < 5; i++ {
			f.Runs = append(f.Runs, &result{Workload: "serve-read", Correct: correct, Attempted: 1000, Failed: failed,
				Metrics: map[string]float64{"ops_per_s": 100 + float64(i)}})
		}
		return f
	}
	for _, c := range []struct {
		name           string
		parent, change *runFile
		want           int
	}{
		{"same", file(1, 0, true), file(1, 0, true), 0},
		{"more failures", file(1, 0, true), file(1, 1, true), 1},
		{"incorrect run", file(1, 0, true), file(1, 0, false), 1},
		{"different run length", file(1, 0, true), file(2, 0, true), 2},
	} {
		if got := comparePrint(c.parent, c.change); got != c.want {
			t.Errorf("%s: comparePrint = %d, want %d", c.name, got, c.want)
		}
	}
}
