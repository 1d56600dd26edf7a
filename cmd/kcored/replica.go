package main

import (
	"context"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/graph"
	"repro/kcore"
	"repro/obs"
	"repro/server"
)

// serveMetrics builds a registry over the server's full metric surface
// and serves it (plus pprof) on addr; shared by leader and replica
// modes. Call only after the server's role is final (NewReplica done).
func serveMetrics(srv *server.Server, addr string) (*obs.Server, error) {
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	return obs.Serve(addr, reg)
}

// runReplica is the -replica-of mode: serve reads from a follower that
// streams the leader's op log, rejecting writes (READONLY) and exposing
// CORE.WAIT on the applied-epoch watermark for read-your-writes.
func runReplica(leaderAddr, addr string, engine []kcore.Option,
	metricsAddr string, slowlogMs int, quiet bool) {
	// The placeholder maintainer serves until the first leader snapshot
	// lands; the replica swaps the real one in atomically.
	m := kcore.New(graph.New(0), engine...)
	srv := server.New(m, server.WithSlowlog(time.Duration(slowlogMs)*time.Millisecond, 0))
	var logger *log.Logger
	if !quiet {
		logger = log.Default()
	}
	rep := server.NewReplica(srv, leaderAddr, server.ReplicaOptions{Engine: engine, Logger: logger})
	if metricsAddr != "" {
		ms, err := serveMetrics(srv, metricsAddr)
		if err != nil {
			log.Fatalf("kcored: metrics: %v", err)
		}
		defer ms.Close()
		if !quiet {
			log.Printf("kcored: metrics on http://%s/metrics (pprof at /debug/pprof/)", ms.Addr())
		}
	}
	rep.Start()

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if !quiet {
			log.Printf("kcored: replica shutting down")
		}
		rep.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	if !quiet {
		log.Printf("kcored: replica of %s, listening on %s", leaderAddr, addr)
	}
	if err := srv.ListenAndServe(addr); err != server.ErrServerClosed {
		log.Fatalf("kcored: %v", err)
	}
	<-shutdownDone
	srv.Maintainer().Close()
	if !quiet {
		st := srv.Stats()
		log.Printf("kcored: replica served %d commands over %d connections, applied epoch %d",
			st.Commands, st.ConnsTotal, rep.Watermark().Epoch())
	}
}
