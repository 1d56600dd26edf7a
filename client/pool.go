package client

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed-capacity pool of idle connections, in the shape of
// redigo's: Get hands out an idle connection or dials a fresh one, Put
// returns it (healthy connections only — a poisoned Conn is closed and
// dropped). The pool never bounds the number of live connections, only
// how many idle ones it retains.
type Pool struct {
	// Dial opens a new connection; required.
	Dial func() (*Conn, error)
	// MaxIdle bounds the idle list (default 8).
	MaxIdle int
	// PingAfter is the test-on-borrow threshold: a connection idle
	// longer than this is PINGed before being handed out, and silently
	// replaced if the server went away meanwhile (restart, idle-timeout,
	// half-open TCP). 0 means the default (1s); negative disables the
	// check entirely.
	PingAfter time.Duration

	mu     sync.Mutex
	idle   []idleConn
	closed bool

	dials    atomic.Int64
	replaced atomic.Int64
	inUse    atomic.Int64
}

// PoolStats is a point-in-time view of a Pool's connection health, the
// client-side sibling of the server's CORE.STATS connection counters —
// the cluster router reports both side by side.
type PoolStats struct {
	Dials    int64 // connections ever dialed
	Replaced int64 // stale idle connections dropped by test-on-borrow
	InUse    int64 // connections currently borrowed (Get minus Put)
	Idle     int64 // connections currently parked in the pool
}

// Stats returns the pool's connection counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := int64(len(p.idle))
	p.mu.Unlock()
	return PoolStats{
		Dials:    p.dials.Load(),
		Replaced: p.replaced.Load(),
		InUse:    p.inUse.Load(),
		Idle:     idle,
	}
}

// idleConn stamps a pooled connection with when it went idle.
type idleConn struct {
	c     *Conn
	since time.Time
}

const defaultPingAfter = time.Second

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("client: pool closed")

// Get returns an idle connection, or dials a new one. A connection that
// sat idle past PingAfter is health-checked first, so a server restart
// does not surface as an error on the next borrowed command.
func (p *Pool) Get() (*Conn, error) {
	pingAfter := p.PingAfter
	if pingAfter == 0 {
		pingAfter = defaultPingAfter
	}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			break
		}
		ic := p.idle[n-1]
		p.idle[n-1] = idleConn{}
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if pingAfter >= 0 && time.Since(ic.since) > pingAfter {
			if _, err := ic.c.Do("PING"); err != nil {
				ic.c.Close()
				p.replaced.Add(1)
				continue // stale; try the next idle conn (fresher) or dial
			}
		}
		p.inUse.Add(1)
		return ic.c, nil
	}
	c, err := p.Dial()
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	// The dial ran outside the lock; Close may have won the race. Handing
	// the connection out anyway would leak it past Close's sweep.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrPoolClosed
	}
	p.mu.Unlock()
	p.inUse.Add(1)
	return c, nil
}

// Put returns c to the pool. Poisoned connections, connections with
// unconsumed pipelined replies, and overflow beyond MaxIdle are closed
// instead — a pooled connection is always safe to hand out.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	p.inUse.Add(-1)
	if c.Err() != nil || c.pending != 0 {
		c.Close()
		return
	}
	maxIdle := p.MaxIdle
	if maxIdle <= 0 {
		maxIdle = 8
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, idleConn{c: c, since: time.Now()})
	p.mu.Unlock()
}

// Close closes every idle connection and rejects future Gets.
// Connections currently handed out are closed by their users' Put.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, ic := range idle {
		ic.c.Close()
	}
	return nil
}
