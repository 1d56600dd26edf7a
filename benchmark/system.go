package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
	"repro/server"
)

// engineWorkers is the engine's worker count where batches are large
// (burst-batch and its reference rows) and on the read-only node; the box
// has two cores and GOMAXPROCS is pinned to match.
const engineWorkers = 2

// writeNodeWorkers is the worker count of the nodes that take small
// pipelined write flights (serve-write-durable, serve-mixed) and of the
// replay that prices their batches. One, not two: at the parent commit
// ParallelOrder's removal path loses an mcd decrement when two workers
// race (internal/pcore's TestStressAlternatingFamilies fails there; 51 of
// 300 small-graph trials through the public API served a wrong core number
// at 2 workers, 0 of 300 at 1). A run makes ~10 000 tiny batches, and at
// 2 workers about 1 run in 60 ended with one vertex one core too high —
// an oracle failure that is the engine's, not the change under test's.
// It costs about 15% of serve-write-durable's throughput. Set to
// engineWorkers, in a change of its own, once the race is fixed.
const writeNodeWorkers = 1

// env is what a run hands each workload instance besides the inputs.
type env struct {
	workDir string // scratch directory inside the checkout, removed at exit
	metrics bool   // register the obs registry (traced runs only, like kcored -metrics-addr)
	seq     int    // numbers the durability directories of repeated set-ups
	corrupt bool   // test hook: damage the mirror before the oracle runs, so the check must fail
}

func (e *env) newDir(tag string) string {
	e.seq++
	return filepath.Join(e.workDir, fmt.Sprintf("%s-%d", tag, e.seq))
}

// nodeOpts selects what cmd/kcored's flags select.
type nodeOpts struct {
	workers    int
	connShards int              // -1 = server default (GOMAXPROCS)
	persist    *persist.Options // nil = no -dir
	dir        string
}

// node is one kcored, in-process: maintainer, optional durability
// manager and RESP server wired exactly as cmd/kcored/main.go wires
// them, listening on a loopback port.
type node struct {
	m        *kcore.Maintainer
	mgr      *persist.Manager
	srv      *server.Server
	reg      *obs.Registry // nil unless env.metrics
	addr     string
	dir      string
	newS     float64 // seconds inside kcore.New
	ckptOps  int64   // the durability manager's checkpoint threshold in ops
	serveErr chan error
}

var discardLog = log.New(io.Discard, "", 0)

func startNode(g *graph.Graph, o nodeOpts, e *env) (*node, error) {
	n := &node{dir: o.dir, serveErr: make(chan error, 1)}
	if o.persist != nil {
		// kcored recovers first; the directory is fresh, so this finds
		// nothing, but the call is part of every durable start.
		if _, err := persist.Recover(o.dir); err != nil {
			return nil, fmt.Errorf("recover %s: %w", o.dir, err)
		}
		opts := *o.persist
		opts.Logger = discardLog
		mgr, err := persist.NewManager(o.dir, opts)
		if err != nil {
			return nil, err
		}
		n.mgr, n.ckptOps = mgr, opts.CheckpointOps
	}
	kopts := []kcore.Option{
		kcore.WithAlgorithm(kcore.ParallelOrder),
		kcore.WithWorkers(o.workers),
	}
	if n.mgr != nil {
		kopts = append(kopts, kcore.WithOpLog(n.mgr))
	}
	start := time.Now()
	n.m = kcore.New(g, kopts...)
	n.newS = time.Since(start).Seconds()
	if n.mgr != nil {
		if err := n.mgr.Start(n.m); err != nil {
			n.m.Close()
			return nil, fmt.Errorf("persist start: %w", err)
		}
	}
	sopts := []server.Option{
		server.WithConnShards(o.connShards),
		server.WithSlowlog(10*time.Millisecond, 0),
		server.WithLogger(nil),
	}
	if n.mgr != nil {
		sopts = append(sopts, server.WithPersistence(n.mgr))
	}
	n.srv = server.New(n.m, sopts...)
	if e.metrics {
		n.reg = obs.NewRegistry()
		n.srv.RegisterMetrics(n.reg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.closeEngine()
		return nil, err
	}
	n.addr = ln.Addr().String()
	go func() { n.serveErr <- n.srv.Serve(ln) }()
	return n, nil
}

// stopServing shuts the server down gracefully and waits for Serve to
// return; the maintainer and the durability manager stay usable.
func (n *node) stopServing() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.serveErr; !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = serr
	}
	n.srv = nil
	return err
}

func (n *node) closeEngine() {
	if n.mgr != nil {
		n.mgr.Close()
	}
	n.m.Close()
}

func (n *node) close() error {
	err := n.stopServing()
	n.closeEngine()
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
	return err
}

// scrape renders the node's registry and parses it back, the way a
// Prometheus scrape of kcored's /metrics would see it.
func scrape(reg *obs.Registry) (map[string]float64, time.Duration, error) {
	if reg == nil {
		return map[string]float64{}, 0, nil
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	m, err := obs.ParseText(&buf)
	return m, took, err
}

// --- pipelined flights over client.Conn -------------------------------------

// flightTimes are the instants a flight passed through the client:
// before the first Send, after Flush, after the first reply arrived,
// after the last reply was decoded.
type flightTimes struct{ start, sent, first, done time.Time }

// getFlight pipelines one CORE.GET per id and counts replies that are
// errors or differ from want (nil want skips the comparison).
func getFlight(c *client.Conn, ids, want []int32) (ft flightTimes, failed int, err error) {
	ft.start = time.Now()
	for i := range ids {
		if err = c.SendInt32s("CORE.GET", ids[i:i+1]); err != nil {
			return ft, 0, err
		}
	}
	if err = c.Flush(); err != nil {
		return ft, 0, err
	}
	ft.sent = time.Now()
	for i := range ids {
		v, rerr := client.Int(c.Receive())
		if i == 0 {
			ft.first = time.Now()
		}
		if rerr != nil {
			if c.Err() != nil {
				return ft, 0, rerr
			}
			failed++
		} else if want != nil && int32(v) != want[ids[i]] {
			failed++
		}
	}
	ft.done = time.Now()
	return ft, failed, nil
}

// mgetFlight sends one CORE.MGET of ids.
func mgetFlight(c *client.Conn, ids, want []int32) (ft flightTimes, failed int, err error) {
	ft.start = time.Now()
	if err = c.SendInt32s("CORE.MGET", ids); err != nil {
		return ft, 0, err
	}
	if err = c.Flush(); err != nil {
		return ft, 0, err
	}
	ft.sent = time.Now()
	v, rerr := c.Receive()
	ft.first = time.Now()
	if rerr != nil {
		if c.Err() != nil {
			return ft, 0, rerr
		}
		ft.done = ft.first
		return ft, len(ids), nil
	}
	if len(v.Array) != len(ids) {
		failed = len(ids)
	} else if want != nil {
		for i, e := range v.Array {
			if int32(e.Int) != want[ids[i]] {
				failed++
			}
		}
	}
	ft.done = time.Now()
	return ft, failed, nil
}

// writeFlight pipelines one single-edge cmd per edge. A write's reply
// is the applied count of the engine batch it was coalesced into, so a
// reply is good when it is a positive integer; which edges landed is
// the oracle's question.
func writeFlight(c *client.Conn, cmd string, edges []graph.Edge) (ft flightTimes, failed int, err error) {
	ft.start = time.Now()
	var pair [2]int32
	for _, e := range edges {
		pair[0], pair[1] = e.U, e.V
		if err = c.SendInt32s(cmd, pair[:]); err != nil {
			return ft, 0, err
		}
	}
	if err = c.Flush(); err != nil {
		return ft, 0, err
	}
	ft.sent = time.Now()
	for i := range edges {
		v, rerr := client.Int(c.Receive())
		if i == 0 {
			ft.first = time.Now()
		}
		if rerr != nil {
			if c.Err() != nil {
				return ft, 0, rerr
			}
			failed++
		} else if v < 1 {
			failed++
		}
	}
	ft.done = time.Now()
	return ft, failed, nil
}

// sweepCores reads every core number in [0, n) over the wire in chunked
// CORE.MGETs — the served half of the oracle check.
func sweepCores(c *client.Conn, n int) ([]int32, error) {
	const chunk = 4096
	out := make([]int32, 0, n)
	ids := make([]int32, 0, chunk)
	for lo := 0; lo < n; lo += chunk {
		ids = ids[:0]
		for v := lo; v < min(lo+chunk, n); v++ {
			ids = append(ids, int32(v))
		}
		if err := c.SendInt32s("CORE.MGET", ids); err != nil {
			return nil, err
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		ks, err := client.Ints(c.Receive())
		if err != nil {
			return nil, err
		}
		if len(ks) != len(ids) {
			return nil, fmt.Errorf("sweep: CORE.MGET of %d ids answered %d", len(ids), len(ks))
		}
		for _, k := range ks {
			out = append(out, int32(k))
		}
	}
	return out, nil
}
