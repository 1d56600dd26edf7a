// Command benchmark is the repository's one benchmark: it generates
// every input from a seed, stands the whole stack up in-process through
// public constructors the way cmd/kcored wires them, drives it over
// loopback TCP through five workloads, checks every served answer
// against the BZ oracle and prints each metric by name with its unit.
//
//	go run ./benchmark -seed 1                       # all five workloads, end-to-end metrics
//	go run ./benchmark -workload serve-read -trace out.json   # per-layer metrics, spans, budget table
//	go run ./benchmark -workload burst-batch -repeat 10 -out a.json
//	go run ./benchmark -compare a.json b.json
//
// The last line of a single run's standard output is one JSON object
// {"correct","attempted","failed","metrics"}; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp says where a set of numbers came from.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func (st stamp) String() string {
	return fmt.Sprintf("commit %s, %s, cpus %d, GOMAXPROCS %d, scale %s, %g s per run",
		st.Commit, st.Go, st.CPUs, st.GOMAXPROCS, st.Scale, st.Seconds)
}

func newStamp(sc scale, seconds float64) stamp {
	return stamp{Commit: commit(), Go: runtime.Version(), CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: sc.name, Seconds: seconds}
}

// commit is the revision the binary was built from: what `go build`
// stamped, else — `go run` stamps nothing — what git says about the
// work tree the benchmark was started in, else "unknown" (an exported
// checkout is not a repository).
func commit() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if _, err := os.Stat(".git"); rev == "" && err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain").Output()
			dirty = err != nil || len(st) > 0
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "+dirty"
	}
	return rev
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of what is done to the graphs: the churned edges and every id stream")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace     = flag.String("trace", "0", "0 = end-to-end run; 1 = traced per-layer run; any other value = traced run that also writes its spans to that file")
		scaleName = flag.String("scale", "full", "full (the recorded sizes) or smoke")
		repeat    = flag.Int("repeat", 1, "run N times on seeds seed..seed+N-1 and print median and quartiles per metric")
		out       = flag.String("out", "", "write the runs to this JSON file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.json change.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: bad -scale %q, -seconds %v or -repeat %d\n", *scaleName, *seconds, *repeat)
		return 2
	}
	// The box has two cores; everything — engine workers, conn shards,
	// the two client goroutines — is sized to that, so pin it.
	runtime.GOMAXPROCS(2)

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	}
	workDir := filepath.Join(".bench_work", fmt.Sprint(os.Getpid()))
	defer func() {
		os.RemoveAll(workDir)
		os.Remove(".bench_work") // only succeeds once no other run is using it
	}()

	st := newStamp(sc, *seconds)
	fmt.Printf("benchmark: %s\n", st)
	file := runFile{Stamp: st}
	code := 0
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			cfg := runConfig{workload: name, seed: *seed + int64(i), seconds: *seconds, sc: sc, workDir: workDir}
			switch *trace {
			case "0":
			case "1":
				cfg.trace = true
			default:
				cfg.trace, cfg.spans = true, *trace
			}
			r, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			file.Runs = append(file.Runs, r)
			printResult(r)
			if !r.Correct {
				code = 1
			}
		}
	}
	if *repeat > 1 {
		printSpread(file.Runs)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// printResult prints the human report, every metric by name and unit,
// and — last — the one-line JSON object the driver reads.
func printResult(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("\n== %s (seed %d, %s) ==\n", r.Workload, r.Seed, mode)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Printf("%-38s %16.4f %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}
