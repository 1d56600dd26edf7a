// Command experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic stand-in suite:
//
//	experiments -exp all                      # everything, CI scale
//	experiments -exp fig4 -scale medium       # one experiment, bigger graphs
//	experiments -exp table3 -workers 1,2,4,8,16 -repeats 5
//
// Experiments: table2, fig1, fig4, table3, fig5, fig6, contention, all, and
// memory (the live heap by owner on the benchmark's burst-batch input; not
// part of all).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/expr"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2|fig1|fig4|table3|fig5|fig6|contention|all|memory")
	scale := flag.String("scale", "ci", "scale: ci|medium|full")
	workers := flag.String("workers", "1,2,4,8,16", "comma-separated worker counts")
	repeats := flag.Int("repeats", 3, "repetitions per measurement")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()

	cfg := expr.DefaultConfig(os.Stdout)
	var err error
	if cfg.Scale, err = expr.ParseScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg.Repeats = *repeats
	cfg.Seed = *seed
	cfg.Workers = nil
	for _, part := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad worker count %q\n", part)
			os.Exit(2)
		}
		cfg.Workers = append(cfg.Workers, w)
	}

	switch *exp {
	case "table2":
		expr.RunTable2(cfg)
	case "fig1":
		expr.RunFig1(cfg)
	case "fig4":
		expr.RunFig4(cfg)
	case "table3":
		expr.RunTable3(cfg, nil)
	case "fig5":
		expr.RunFig5(cfg)
	case "fig6":
		expr.RunFig6(cfg)
	case "contention":
		expr.RunContention(cfg)
	case "memory":
		expr.RunMemory(cfg)
	case "all":
		expr.RunAll(cfg)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
