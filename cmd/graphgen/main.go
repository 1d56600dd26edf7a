// Command graphgen emits synthetic graphs as whitespace edge lists:
//
//	graphgen -model er   -n 100000 -m 800000 > er.txt
//	graphgen -model ba   -n 100000 -k 4      > ba.txt
//	graphgen -model rmat -scale 17 -m 800000 > rmat.txt
//	graphgen -model plc  -n 100000 -avg 14 -exp 2.4 > social.txt
//	graphgen -suite ci                        # the Table 2 stand-in suite
//
// With -suite, every graph of the experiment suite is written to
// <name>.txt in the current directory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/gen"
	"repro/graph"
	"repro/internal/expr"
)

func main() {
	model := flag.String("model", "", "er|ba|rmat|ws|plc")
	n := flag.Int("n", 100000, "vertices (er, ba, ws, plc)")
	m := flag.Int64("m", 800000, "edges (er, rmat)")
	k := flag.Int("k", 4, "attachment/lattice degree (ba, ws)")
	scale := flag.Int("scale", 17, "log2 vertices (rmat)")
	avg := flag.Float64("avg", 8, "average degree (plc)")
	exp := flag.Float64("exp", 2.5, "power-law exponent (plc)")
	p := flag.Float64("p", 0.1, "rewire probability (ws)")
	seed := flag.Int64("seed", 1, "random seed")
	suite := flag.String("suite", "", "write the Table 2 suite at this scale (ci|medium|full)")
	flag.Parse()

	if *suite != "" {
		sc, err := expr.ParseScale(*suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(2)
		}
		for _, sg := range expr.Suite(sc, *seed) {
			name := sg.Name + ".txt"
			if err := writeGraph(name, sg.Build()); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", name)
		}
		return
	}

	var g *graph.Graph
	switch *model {
	case "er":
		g = gen.ErdosRenyi(*n, *m, *seed)
	case "ba":
		g = gen.BarabasiAlbert(*n, *k, *seed)
	case "rmat":
		g = gen.RMAT(*scale, *m, *seed)
	case "ws":
		g = gen.WattsStrogatz(*n, *k, *p, *seed)
	case "plc":
		g = gen.PowerLawCluster(*n, *avg, *exp, *seed)
	default:
		fmt.Fprintln(os.Stderr, "graphgen: -model er|ba|rmat|ws|plc or -suite required")
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := g.WriteEdgeList(w); err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WriteEdgeList(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
