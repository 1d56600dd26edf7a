// Command kcored serves a maintained k-core decomposition over TCP,
// speaking the RESP2 wire protocol — the networked face of the serving
// layer. Point any RESP client (redis-cli included) at it:
//
//	kcored -addr :6380 -alg parallel -workers 4 -load er.txt
//	redis-cli -p 6380 core.get 42
//
// With -load, the initial graph is read from a whitespace edge list
// (cmd/graphgen emits them); without it the server starts on an empty
// universe of -n vertices (default 0) and grows on demand as CORE.INSERT
// traffic names fresh vertex ids.
//
// With -dir, the server is durable: every applied write is appended to
// an op log in that directory (sync policy per -aof-fsync) and
// checkpointed periodically (-checkpoint-ops / -checkpoint-bytes, or
// CORE.BGSAVE on demand). On startup, existing state in -dir wins over
// -load: the server recovers from the latest checkpoint plus the log
// tail and logs a note that -load was ignored. On a fresh -dir with
// -load, the edge list is imported and immediately checkpointed, so the
// text parse is paid once, ever. SIGINT/SIGTERM shut down gracefully:
// in-flight write futures drain, buffered replies flush, and (with
// -dir) a final checkpoint lands before the process exits.
//
// With -replica-of, the server is a read-only follower of another kcored:
// it starts empty, and its one maintainer reloads from the leader's
// snapshot at every (re)connect, then applies the leader's op stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
	"repro/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":6380", "listen address (host:port)")
		algName     = flag.String("alg", "parallel", "engine: parallel|seq|traversal|jes")
		workers     = flag.Int("workers", 4, "engine worker goroutines")
		maxVertices = flag.Int("maxvertices", kcore.DefaultMaxVertices, "vertex-universe growth ceiling")
		n           = flag.Int("n", 0, "initial (empty) vertex universe when -load is absent")
		load        = flag.String("load", "", "preload graph from a whitespace edge-list file")
		dir         = flag.String("dir", "", "durability directory (AOF + checkpoints); empty = no persistence")
		fsyncName   = flag.String("aof-fsync", "everysec", "AOF sync policy: always|everysec|no")
		ckptOps     = flag.Int64("checkpoint-ops", 0, "checkpoint after this many logged ops (0 = default, <0 = never)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "checkpoint after this many logged bytes (0 = default, <0 = never)")
		replicaOf   = flag.String("replica-of", "", "run as a read-only follower of the leader kcored at host:port")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and net/http/pprof on this address (empty = disabled)")
		slowlogMs   = flag.Int("slowlog-ms", 10, "slowlog threshold in milliseconds (0 records every command, negative disables)")
		quiet       = flag.Bool("quiet", false, "suppress the startup banner")
	)
	flag.Parse()

	alg, err := parseAlg(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *replicaOf != "" && (*dir != "" || *load != "") {
		// A follower's only durable truth is the leader's stream: it
		// bootstraps from a leader snapshot on every (re)connect, so local
		// persistence or preloads would only be discarded state.
		fmt.Fprintln(os.Stderr, "kcored: -replica-of is mutually exclusive with -dir and -load")
		os.Exit(2)
	}
	fsync, err := persist.ParseFsync(*fsyncName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Recover-or-import precedence: durable state in -dir is
	// authoritative; -load only seeds a directory that has none. A
	// follower starts empty and reloads from its leader's snapshot.
	res := &persist.Result{} // the recovered state: a nil Graph when there is none
	var mgr *persist.Manager
	if *dir != "" {
		start := time.Now()
		if res, err = persist.Recover(*dir); err != nil {
			log.Fatalf("kcored: recover %s: %v", *dir, err)
		}
		if g := res.Graph; g != nil {
			if !*quiet {
				log.Printf("kcored: recovered gen %d from %s: n=%d m=%d, %d log records (%d edge ops) replayed across %d segment(s), %d torn bytes dropped, in %v",
					res.Gen, *dir, g.N(), g.M(), res.TailRecords, res.TailEdges,
					res.Segments, res.TornBytes, time.Since(start).Round(time.Millisecond))
			}
			if res.Truncated {
				log.Printf("kcored: WARNING: %s has mid-log corruption; recovered the longest valid prefix", *dir)
			}
			if *load != "" {
				log.Printf("kcored: -load %s ignored: %s already holds durable state (remove the directory to re-import)", *load, *dir)
			}
		}
		mgr, err = persist.NewManager(*dir, persist.Options{
			Fsync:           fsync,
			CheckpointOps:   *ckptOps,
			CheckpointBytes: *ckptBytes,
		})
		if err != nil {
			log.Fatalf("kcored: %v", err)
		}
	}
	g := graph.New(0)
	if res.Graph == nil {
		if g, err = buildGraph(*load, *n); err != nil {
			log.Fatalf("kcored: %v", err)
		}
	}

	start := time.Now()
	engine := []kcore.Option{
		kcore.WithAlgorithm(alg),
		kcore.WithWorkers(*workers),
		kcore.WithMaxVertices(*maxVertices),
	}
	if mgr != nil {
		engine = append(engine, kcore.WithOpLog(mgr))
	}
	m := kcore.New(g, engine...)
	defer m.Close()
	if res.Graph != nil {
		// A recovered leader resumes at the epoch it recovered, so its
		// log's epochs, and those its followers and clients hold, run on.
		g = res.Graph
		m.Reload(g, res.Epoch)
	}
	if mgr != nil {
		// Start's synchronous checkpoint captures the just-built state —
		// a -load import is durable (and its text parse paid for good)
		// before the listener opens.
		if err := mgr.Start(m); err != nil {
			log.Fatalf("kcored: persistence: %v", err)
		}
		defer mgr.Close()
	}
	if !*quiet {
		log.Printf("kcored: engine %v (workers=%d), n=%d m=%d, initial decomposition in %v",
			alg, *workers, g.N(), g.M(), time.Since(start).Round(time.Millisecond))
	}

	srvOpts := []server.Option{
		server.WithSlowlog(time.Duration(*slowlogMs)*time.Millisecond, 0),
	}
	if mgr != nil {
		srvOpts = append(srvOpts, server.WithPersistence(mgr))
	}
	srv := server.New(m, srvOpts...)
	var rep *server.Replica
	if *replicaOf != "" {
		var logger *log.Logger
		if !*quiet {
			logger = log.Default()
		}
		rep = server.NewReplica(srv, *replicaOf, server.ReplicaOptions{Logger: logger})
	}
	if *metricsAddr != "" {
		// The registry records the server's role: it is built after
		// NewReplica.
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		ms, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("kcored: metrics: %v", err)
		}
		defer ms.Close()
		if !*quiet {
			log.Printf("kcored: metrics on http://%s/metrics (pprof at /debug/pprof/)", ms.Addr())
		}
	}
	if rep != nil {
		rep.Start()
	}
	// Closing the listener makes ListenAndServe return immediately, but
	// the graceful drain (in-flight write futures, buffered replies) is
	// still running inside Shutdown — main must wait for it before
	// exiting, or the process would cut connections mid-drain.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if !*quiet {
			log.Printf("kcored: shutting down")
		}
		if rep != nil {
			rep.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if mgr != nil {
			// Every drained write is in the (synced-on-Close) log; the
			// final checkpoint just makes the next recovery's replay
			// empty.
			if err := mgr.CheckpointNow(); err != nil {
				log.Printf("kcored: final checkpoint: %v", err)
			}
		}
	}()

	if !*quiet {
		log.Printf("kcored: listening on %s", *addr)
	}
	err = srv.ListenAndServe(*addr)
	if err != server.ErrServerClosed {
		log.Fatalf("kcored: %v", err)
	}
	<-shutdownDone
	if !*quiet {
		st := srv.Stats()
		log.Printf("kcored: served %d commands over %d connections, epoch %d",
			st.Commands, st.ConnsTotal, m.Epoch())
	}
}

func parseAlg(name string) (kcore.Algorithm, error) {
	switch name {
	case "parallel":
		return kcore.ParallelOrder, nil
	case "seq":
		return kcore.SequentialOrder, nil
	case "traversal":
		return kcore.Traversal, nil
	case "jes":
		return kcore.JoinEdgeSet, nil
	}
	return 0, fmt.Errorf("unknown -alg %q (want parallel|seq|traversal|jes)", name)
}

func buildGraph(load string, n int) (*graph.Graph, error) {
	if load == "" {
		return graph.New(n), nil
	}
	f, err := os.Open(load)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", load, err)
	}
	return g, nil
}
