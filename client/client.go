// Package client is the Go client for the kcored RESP server: a thin,
// pipelining-first connection type in the style of redigo's Do / Send /
// Flush / Receive split, plus a fixed-size connection pool and typed
// reply helpers.
//
// Round trip per command:
//
//	c, _ := client.Dial(addr)
//	defer c.Close()
//	k, _ := client.Int(c.Do("CORE.GET", 42))
//
// Pipelined (one write, one read, N commands — the shape that lets the
// server coalesce a write burst into shared engine batches):
//
//	for _, e := range edges {
//		c.Send("CORE.INSERT", e.U, e.V)
//	}
//	c.Flush()
//	for range edges {
//		c.Receive()
//	}
package client

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/resp"
)

// Conn is one client connection. It is not safe for concurrent use —
// that is the Pool's job (one goroutine per pooled Conn at a time).
type Conn struct {
	nc      net.Conn
	rd      *resp.Reader
	wr      *resp.Writer
	pending int   // commands sent, replies not yet received
	err     error // sticky transport/protocol error; the conn is poisoned
	// scratch formats integer arguments. A local array would escape through
	// the buffered writer and cost one allocation per command; the Conn
	// is on the heap already.
	scratch [20]byte
}

// DialOption configures Dial.
type DialOption func(*dialCfg)

type dialCfg struct {
	timeout time.Duration
}

// WithDialTimeout bounds the TCP connect (default: none).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialCfg) { c.timeout = d }
}

// Dial connects to a kcored server at addr ("host:port").
func Dial(addr string, opts ...DialOption) (*Conn, error) {
	var cfg dialCfg
	for _, o := range opts {
		o(&cfg)
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.timeout)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection (the Dial of tests and custom
// transports).
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		rd: resp.NewReaderSize(nc, 16<<10),
		wr: resp.NewWriterSize(nc, 16<<10),
	}
}

// Close closes the connection.
func (c *Conn) Close() error {
	if c.err == nil {
		c.err = errors.New("client: closed")
	}
	return c.nc.Close()
}

// Err returns the sticky error that poisoned the connection, if any.
// Server error replies are not sticky; transport and protocol failures
// are.
func (c *Conn) Err() error { return c.err }

// Send buffers one command without writing to the network; Flush ships
// the buffered batch. Each Send owes one Receive.
func (c *Conn) Send(cmd string, args ...any) error {
	if c.err != nil {
		return c.err
	}
	// Validate argument types before anything reaches the buffer: a frame
	// claiming more elements than it carries would desynchronize the
	// stream. Rejection here leaves the connection healthy.
	for _, a := range args {
		switch a.(type) {
		case string, []byte, int, int32, int64, uint64:
		default:
			return fmt.Errorf("client: unsupported argument type %T", a)
		}
	}
	if err := c.writeCommand(cmd, args); err != nil {
		return c.fatal(err)
	}
	c.pending++
	return nil
}

// SendInt32s buffers one command whose arguments are all int32s (vertex
// ids, edge endpoint pairs) straight off a slice, without boxing each id
// into an interface the way Send's variadic ...any does. It is the bulk
// path for chunked CORE.MGET sweeps and multi-pair CORE.INSERT/REMOVE
// commands — the shapes the cluster router ships per shard.
func (c *Conn) SendInt32s(cmd string, ids []int32) error {
	if c.err != nil {
		return c.err
	}
	c.wr.WriteArrayHeader(1 + len(ids))
	c.wr.WriteBulkString(cmd)
	for _, id := range ids {
		c.wr.WriteBulk(strconv.AppendInt(c.scratch[:0], int64(id), 10))
	}
	c.pending++
	return nil
}

// Flush writes every buffered command to the network.
func (c *Conn) Flush() error {
	if c.err != nil {
		return c.err
	}
	if err := c.wr.Flush(); err != nil {
		return c.fatal(err)
	}
	return nil
}

// Receive reads the next reply. A server "-ERR …" reply is returned as a
// *ServerError with a zero Value; transport or protocol failures poison
// the connection.
func (c *Conn) Receive() (resp.Value, error) {
	if c.err != nil {
		return resp.Value{}, c.err
	}
	v, err := c.rd.ReadValue()
	if err != nil {
		return resp.Value{}, c.fatal(fmt.Errorf("client: receive: %w", err))
	}
	if c.pending > 0 {
		c.pending--
	}
	if v.Kind == resp.Error {
		return resp.Value{}, &ServerError{Msg: string(v.Str)}
	}
	return v, nil
}

// Do is the round-trip path: Send(cmd, args…), Flush, then Receive every
// outstanding reply, returning the last one — cmd's own. Errors on
// earlier pipelined replies surface here too (first one wins), so a
// fire-and-forget Send cannot fail silently.
func (c *Conn) Do(cmd string, args ...any) (resp.Value, error) {
	if err := c.Send(cmd, args...); err != nil {
		return resp.Value{}, err
	}
	if err := c.Flush(); err != nil {
		return resp.Value{}, err
	}
	var (
		last     resp.Value
		firstErr error
	)
	for n := c.pending; n > 0; n-- {
		v, err := c.Receive()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if c.err != nil {
				return resp.Value{}, c.err
			}
			continue
		}
		last = v
	}
	if firstErr != nil {
		return resp.Value{}, firstErr
	}
	return last, nil
}

func (c *Conn) fatal(err error) error {
	if c.err == nil {
		c.err = err
	}
	c.nc.Close()
	return c.err
}

// writeCommand encodes cmd with Go-typed arguments — string, []byte, and
// the integer kinds vertex ids come in (Send validated the types
// already).
func (c *Conn) writeCommand(cmd string, args []any) error {
	c.wr.WriteArrayHeader(1 + len(args))
	c.wr.WriteBulkString(cmd)
	for _, a := range args {
		switch v := a.(type) {
		case string:
			c.wr.WriteBulkString(v)
		case []byte:
			c.wr.WriteBulk(v)
		case int:
			c.wr.WriteBulk(strconv.AppendInt(c.scratch[:0], int64(v), 10))
		case int32:
			c.wr.WriteBulk(strconv.AppendInt(c.scratch[:0], int64(v), 10))
		case int64:
			c.wr.WriteBulk(strconv.AppendInt(c.scratch[:0], v, 10))
		case uint64:
			c.wr.WriteBulk(strconv.AppendUint(c.scratch[:0], v, 10))
		default:
			return fmt.Errorf("client: unsupported argument type %T", a)
		}
	}
	return nil
}

// ServerError is an error reply from the server ("-ERR …"). The
// connection stays healthy after one.
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "server error: " + e.Msg }
