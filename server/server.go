// Package server exposes a kcore.Maintainer over TCP speaking the RESP2
// wire protocol (package resp) — the network surface of the serving
// layer. One goroutine per connection reads pipelined CORE.* commands,
// serves queries lock-free off the maintainer's latest published
// snapshot, and fans write commands asynchronously into the maintainer's
// coalescing pipeline, so a pipelined write burst — from one connection
// or from many — shares engine rounds instead of paying one round per
// command. Commands are parsed in place out of the connection's query
// buffer, and replies are buffered and flushed once per socket read.
//
// The protocol is plain RESP2, so redis-cli works for exploration:
//
//	$ redis-cli -p 6380 core.get 42
//	(integer) 3
//
// See the package-level command table in command.go and the README's
// "Network serving" section.
package server

import (
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/kcore"
	"repro/obs"
	"repro/persist"
)

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the connection-error logger; the default logs through
// the standard library's default logger. Pass nil to silence.
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.logger = l; s.logSet = true } }

// WithConnShards is accepted and ignored: every connection is served by
// its own goroutine. The name survives only because benchmark/ compiles
// against it; nothing else may call it.
func WithConnShards(int) Option { return func(*Server) {} }

// WithPersistence attaches the durability manager whose OpLog already
// feeds off this server's maintainer. The server does not own it (the
// caller wires Start/Close around the maintainer's lifecycle); attaching
// it here exposes the operator surface: CORE.BGSAVE, CORE.LASTSAVE, and
// the durability metrics in CORE.STATS and RegisterMetrics.
func WithPersistence(p *persist.Manager) Option { return func(s *Server) { s.persist = p } }

// defaultMaxPipeline bounds how many commands one connection may have in
// flight before the server forces a drain of its pending write futures. It
// bounds per-connection memory, not protocol depth — clients may pipeline
// arbitrarily deep.
const defaultMaxPipeline = 512

// Server serves one Maintainer over RESP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown (graceful) or Close.
type Server struct {
	m       *kcore.Maintainer // for the server's life; a replica reloads it in place
	persist *persist.Manager
	replica *Replica // set by NewReplica before Serve; nil on a leader
	logger  *log.Logger
	logSet  bool

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	inFlight sync.WaitGroup // one per connection goroutine
	closing  atomic.Bool
	closeCh  chan struct{} // closed once by beginClose; cancels blocking commands

	// metrics is built by New (slowThreshold/slowSize are its WithSlowlog
	// inputs) and never nil: it is the only store of the server's counts.
	metrics       *serverMetrics
	slowThreshold time.Duration
	slowSize      int

	regOnce sync.Once
	reg     *obs.Registry // see registry
}

// ServeStats is a point-in-time view of the server's network-side
// counters, the wire-facing sibling of kcore.ServingStats, read off the
// same metrics CORE.STATS and /metrics render.
type ServeStats struct {
	ConnsTotal  int64 // connections ever accepted
	ConnsActive int64 // connections currently open
	Commands    int64 // commands dispatched, unknown ones included
	WriteCmds   int64 // CORE.INSERT/CORE.REMOVE among them
	ErrorsSent  int64 // error replies written
	ProtoErrors int64 // connections dropped on malformed frames
	// PipelineDepth summarizes commands-per-flush-cycle — how deep
	// clients actually pipeline (1 means unpipelined request/response),
	// estimated from the kcored_pipeline_depth histogram's buckets.
	PipelineDepth stats.Percentiles
}

// New returns a Server over m. The caller keeps ownership of m: closing
// the server does not close the maintainer.
func New(m *kcore.Maintainer, opts ...Option) *Server {
	s := &Server{
		m:             m,
		conns:         make(map[*conn]struct{}),
		closeCh:       make(chan struct{}),
		slowThreshold: 10 * time.Millisecond,
		slowSize:      128,
	}
	for _, o := range opts {
		o(s)
	}
	s.metrics = newServerMetrics(s.slowThreshold, s.slowSize)
	return s
}

// Stats returns the server's network-side counters. A connection adds its
// commands to the family counters when its pipelined burst ends.
func (s *Server) Stats() ServeStats {
	m := s.metrics
	var cmds int64
	for _, c := range m.famCount {
		cmds += c.Value()
	}
	return ServeStats{
		ConnsTotal:    m.connsTotal.Value(),
		ConnsActive:   m.connsActive.Value(),
		Commands:      cmds,
		WriteCmds:     m.famCount[famWrite].Value(),
		ErrorsSent:    m.errorsSent.Value(),
		ProtoErrors:   m.protoErrors.Value(),
		PipelineDepth: stats.EstimatePercentiles(m.pipeDepth.Count(), m.pipeDepth.Quantile, 1),
	}
}

// Maintainer returns the maintainer this server fronts: the one New was
// given, for the server's whole life.
func (s *Server) Maintainer() *kcore.Maintainer { return s.m }

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr ("host:port") and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown or Close, spawning one
// goroutine per connection. It takes ownership of ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve called twice")
	}
	s.ln = ln
	s.mu.Unlock()

	// Transient accept failures (fd exhaustion under connection fan-in,
	// ECONNABORTED) must not kill the listener: back off and retry, the
	// way net/http does; only hard errors end Serve.
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			if isTransientAccept(err) {
				s.logf("server: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				continue
			}
			return err
		}
		backoff = 5 * time.Millisecond
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		// Counted under mu with the closing check: a Close that sets
		// closing after this section waits for c, and one that set it
		// before makes Serve return above, so no Wait runs beside an Add
		// from zero.
		s.inFlight.Add(1)
		s.mu.Unlock()
		s.metrics.connsTotal.Inc()
		s.metrics.connsActive.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.metrics.connsActive.Add(-1)
				s.inFlight.Done()
			}()
			c.serve()
		}()
	}
}

// Shutdown stops the server gracefully: the listener closes, every
// connection is nudged out of its blocking read, drains the write
// futures already fanned into the maintainer's pipeline, flushes its
// buffered replies, and closes. Shutdown returns when every connection
// goroutine has exited or ctx is done (then remaining connections are
// closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginClose()
	// Nudge blocked readers: a read deadline in the past wakes the read
	// loop, which sees closing and performs the graceful drain.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Unix(0, 0))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		return ctx.Err()
	}
}

// Close stops the server immediately: listener and all connections are
// closed; in-flight commands may go unanswered.
func (s *Server) Close() error {
	s.beginClose()
	s.closeConns()
	s.inFlight.Wait()
	return nil
}

func (s *Server) beginClose() {
	if s.closing.CompareAndSwap(false, true) {
		close(s.closeCh) // wakes blocking commands (CORE.SYNC, CORE.WAIT)
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
}

// isTransientAccept reports whether an Accept error is worth backing off
// and retrying rather than killing the listener: fd exhaustion under a
// connection fan-in storm (EMFILE/ENFILE — the fds come back as soon as
// some connections drain) and a peer resetting mid-handshake
// (ECONNABORTED/ECONNRESET). The deprecated net.Error.Temporary() covers
// an overlapping set, but which of these it reports depends on how the
// platform wrapped the errno (net's own isConnError misses a
// *os.SyscallError-wrapped ECONNRESET, for instance) — errors.Is
// classification is explicit and survives any wrapping. Temporary() is
// kept as a fallback for non-errno transient errors.
func isTransientAccept(err error) bool {
	if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Temporary()
}

func (s *Server) logf(format string, args ...any) {
	if s.logSet {
		if s.logger != nil {
			s.logger.Printf(format, args...)
		}
		return
	}
	log.Printf(format, args...)
}
