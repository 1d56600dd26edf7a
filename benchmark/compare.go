package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// allMetrics is every declared metric, end-to-end first.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// group collects each metric's values per workload over runs, in run
// order (traced and untraced runs emit disjoint names, so they mix).
func group(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// spreadOf is the inter-quartile distance as a share of the median —
// the steadiness figure the acceptance procedure holds against a
// metric's bound.
func spreadOf(xs []float64) (q1, med, q3, spread float64) {
	q1, med, q3 = quartiles(xs)
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return
}

// printSpread prints median, quartiles and spread per metric of a
// -repeat set.
func printSpread(runs []*result) {
	g := group(runs)
	for _, w := range workloadDefs {
		ms := g[w.Name]
		if ms == nil {
			continue
		}
		fmt.Printf("\n== %s ==\n", w.Name)
		fmt.Printf("%-38s %4s %14s %14s %14s %8s %6s\n", "metric", "runs", "q1", "median", "q3", "spread", "bound")
		for _, d := range allMetrics() {
			xs, ok := ms[d.Name]
			if !ok {
				continue
			}
			q1, med, q3, sp := spreadOf(xs)
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Printf("%-38s %4d %14.4f %14.4f %14.4f %7.1f%% %6s\n", d.Name, len(xs), q1, med, q3, 100*sp, bound)
		}
	}
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges one (metric, workload) pair: change against parent.
// worsening is the change's median relative to the parent's, signed so
// that positive is worse. A pair whose parent runs spread wider than
// the bound cannot be judged at that bound and is unresolved; a gain
// counts only when it exceeds the parent's own spread.
func verdict(d metricDef, parent, change []float64) (ratio, worsening, spread float64, v string) {
	_, pm, _, spread := spreadOf(parent)
	_, cm, _, _ := spreadOf(change)
	if pm == 0 {
		return 0, 0, spread, "unresolved"
	}
	ratio = cm / pm
	worsening = ratio - 1
	if d.Better == "higher" {
		worsening = -worsening
	}
	bound := d.Bound
	if bound == 0 {
		bound = 0.10 // per-layer rows carry no bound; judge them at the default
	}
	switch {
	case spread > bound:
		v = "unresolved"
	case worsening > bound:
		v = "worse"
	case -worsening > spread && -worsening > 0.01:
		v = "better"
	default:
		v = "same"
	}
	return
}

// compareFiles prints every (metric, workload) pair the two files
// share in its own row: both medians, the ratio with its base, the
// bound and the verdict, and per workload one failed_ops_share row. It
// returns 1 when an end-to-end pair is worse, more operations failed or
// a run on either side was incorrect, and 2 when the files do not compare.
func compareFiles(parentPath, changePath string) int {
	var files [2]*runFile
	for i, path := range []string{parentPath, changePath} {
		f, err := readRunFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return comparePrint(files[0], files[1])
}

// failedShare is failed over attempted across a workload's runs, and
// how many of those runs the oracle rejected.
func failedShare(runs []*result, workload string) (share float64, incorrect, n int) {
	var failed, attempted int64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		n++
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			incorrect++
		}
	}
	return float64(failed) / float64(max(attempted, 1)), incorrect, n
}

func comparePrint(pf, cf *runFile) int {
	fmt.Printf("parent: %s\nchange: %s\n", pf.Stamp, cf.Stamp)
	if p, c := pf.Stamp, cf.Stamp; p.Scale != c.Scale || p.Seconds != c.Seconds {
		fmt.Fprintln(os.Stderr, "benchmark: the two files were not run at the same scale and run length; nothing to compare")
		return 2
	}
	pg, cg := group(pf.Runs), group(cf.Runs)
	code := 0
	fmt.Printf("\n%-20s %-34s %14s %14s %-22s %6s %8s  %s\n",
		"workload", "metric", "parent median", "change median", "ratio (base = parent)", "bound", "spread", "verdict")
	for _, w := range workloadDefs {
		for _, d := range allMetrics() {
			p, c := pg[w.Name][d.Name], cg[w.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			ratio, _, spread, v := verdict(d, p, c)
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if v == "worse" {
					code = 1
				}
			}
			fmt.Printf("%-20s %-34s %14.4f %14.4f %-22s %6s %7.1f%%  %s\n",
				w.Name, d.Name, median(p), median(c),
				fmt.Sprintf("%.3f x parent (n=%d/%d)", ratio, len(p), len(c)), bound, 100*spread, v)
		}
		// Failures are not a median: any increase is worse, and a run the
		// oracle rejected voids whatever its side of the comparison gained.
		ps, pBad, pn := failedShare(pf.Runs, w.Name)
		cs, cBad, cn := failedShare(cf.Runs, w.Name)
		if pn == 0 || cn == 0 {
			continue
		}
		v := "same"
		if cs > ps || pBad+cBad > 0 {
			v, code = "worse", 1
		}
		fmt.Printf("%-20s %-34s %14.6f %14.6f %-22s %6s %8s  %s\n", w.Name, "failed_ops_share", ps, cs,
			fmt.Sprintf("incorrect runs %d/%d, %d/%d", pBad, pn, cBad, cn), "any", "-", v)
	}
	return code
}
