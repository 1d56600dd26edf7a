package client_test

import (
	"bytes"
	"errors"
	"math"
	"net"
	"strings"
	"testing"

	"repro/client"
	"repro/gen"
	"repro/kcore"
	"repro/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	m := kcore.New(gen.ErdosRenyi(200, 800, 11))
	srv := server.New(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return ln.Addr().String()
}

func TestDoSendFlushReceive(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if s, err := client.String(c.Do("PING")); err != nil || s != "PONG" {
		t.Fatalf("PING = %q, %v", s, err)
	}

	// Send/Flush/Receive accounting: three sends owe three receives.
	for i := 0; i < 3; i++ {
		if err := c.Send("CORE.GET", i); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Int(c.Receive()); err != nil {
			t.Fatalf("Receive %d: %v", i, err)
		}
	}

	// Do after unreceived Sends settles the backlog and returns its own
	// reply.
	c.Send("CORE.GET", 1)
	c.Send("CORE.GET", 2)
	if s, err := client.String(c.Do("PING", "tail")); err != nil || s != "tail" {
		t.Fatalf("Do after Sends = %q, %v", s, err)
	}

	// An unsupported argument type is rejected client-side without
	// poisoning the connection.
	if err := c.Send("CORE.GET", 3.14); err == nil {
		t.Fatalf("Send(float) did not error")
	}
	if c.Err() != nil {
		t.Fatalf("type error poisoned the connection: %v", c.Err())
	}
	if _, err := client.Int(c.Do("CORE.GET", 0)); err != nil {
		t.Fatalf("conn unusable after arg-type error: %v", err)
	}
}

func TestReplyHelpers(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := client.Ints(c.Do("CORE.MGET", 0, 1, 2)); err != nil {
		t.Fatalf("Ints(MGET): %v", err)
	}
	stats, err := client.String(c.Do("CORE.STATS"))
	if err != nil || !strings.Contains(stats, "\nkcored_vertices 200\n") {
		t.Fatalf("String(STATS): %v, reply:\n%s", err, stats)
	}
	// Kind mismatches are errors, not zero values.
	if _, err := client.Int(c.Do("PING")); err == nil {
		t.Fatalf("Int(simple-string) did not error")
	}
	if _, err := client.Ints(c.Do("CORE.GET", 0)); err == nil {
		t.Fatalf("Ints(integer) did not error")
	}
}

func TestPool(t *testing.T) {
	addr := startServer(t)
	p := &client.Pool{
		Dial:    func() (*client.Conn, error) { return client.Dial(addr) },
		MaxIdle: 2,
	}
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := client.Int(c1.Do("CORE.GET", 1)); err != nil {
		t.Fatalf("Do on pooled conn: %v", err)
	}
	p.Put(c1)

	// The healthy connection is reused.
	c2, err := p.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if c2 != c1 {
		t.Fatalf("pool did not reuse the idle connection")
	}

	// A connection with unconsumed pipelined replies is not pooled.
	c2.Send("CORE.GET", 1)
	c2.Flush()
	p.Put(c2)
	c3, err := p.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if c3 == c2 {
		t.Fatalf("pool handed out a connection with pending replies")
	}

	// A poisoned connection is not pooled either.
	c3.Close()
	p.Put(c3)
	c4, err := p.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if c4 == c3 {
		t.Fatalf("pool handed out a poisoned connection")
	}
	p.Put(c4)

	p.Close()
	if _, err := p.Get(); !errors.Is(err, client.ErrPoolClosed) {
		t.Fatalf("Get after Close = %v, want ErrPoolClosed", err)
	}
}

// TestSendInt32s pins the bulk pipelining path: a chunk of ids shipped
// without per-argument boxing behaves exactly like the equivalent Send —
// one owed reply per command, same server-side semantics.
func TestSendInt32s(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	ids := []int32{0, 1, 2, 3, 199}
	if err := c.SendInt32s("CORE.MGET", ids); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInt32s("CORE.INSERT", []int32{300, 301, 301, 302}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := client.Ints(c.Receive())
	if err != nil {
		t.Fatalf("MGET reply: %v", err)
	}
	if len(got) != len(ids) {
		t.Fatalf("MGET returned %d values, want %d", len(got), len(ids))
	}
	want, err := client.Ints(c.Do("CORE.MGET", 0, 1, 2, 3, 199))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MGET[%d] = %d via SendInt32s, %d via Send", i, got[i], want[i])
		}
	}
	if k, err := client.Int(c.Do("CORE.GET", 301)); err != nil || k != 1 {
		t.Fatalf("inserted chain: CORE.GET 301 = %d, %v (want 1)", k, err)
	}

	// The exact frame, at the edges of the int32 range: ids are encoded in
	// the connection's scratch, so one id must not leak into the next.
	wire := &wireConn{}
	wc := client.NewConn(wire)
	if err := wc.SendInt32s("CORE.MGET", []int32{0, -1, math.MaxInt32, math.MinInt32, 7}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	const frame = "*6\r\n$9\r\nCORE.MGET\r\n$1\r\n0\r\n$2\r\n-1\r\n" +
		"$10\r\n2147483647\r\n$11\r\n-2147483648\r\n$1\r\n7\r\n"
	if got := wire.out.String(); got != frame {
		t.Fatalf("wire bytes:\n got %q\nwant %q", got, frame)
	}
}

// wireConn is a net.Conn that records what is written to it. Only Write is
// implemented: the tests that use it never read or close.
type wireConn struct {
	net.Conn
	out bytes.Buffer
}

func (w *wireConn) Write(p []byte) (int, error) { return w.out.Write(p) }

// TestSendInt32sAllocs pins the bulk write path at zero allocations per
// command on a warm Conn: ids are formatted in the Conn's own scratch.
func TestSendInt32sAllocs(t *testing.T) {
	wire := &wireConn{}
	wire.out.Grow(64 << 10) // room for the buffered writer's spills
	c := client.NewConn(wire)
	pair := []int32{123456, -7}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.SendInt32s("CORE.INSERT", pair); err != nil {
			t.Fatal(err)
		}
		wire.out.Reset()
	})
	if allocs != 0 {
		t.Fatalf("SendInt32s: %.2f allocations per command, want 0", allocs)
	}
}

// replyConn serves canned reply bytes to a Conn's reads.
type replyConn struct {
	net.Conn
	in *strings.Reader
}

func (r *replyConn) Read(p []byte) (int, error) { return r.in.Read(p) }
func (r *replyConn) Close() error               { return nil }

// TestReceiveInts pins ReceiveInts against each reply shape: an integer
// array reaches the sink in order, an error reply and a reply of another
// kind are errors that leave the connection usable, and an array with a
// non-integer element poisons it. On a warm Conn it allocates nothing.
func TestReceiveInts(t *testing.T) {
	c := client.NewConn(&replyConn{in: strings.NewReader(
		"*3\r\n:5\r\n:0\r\n:-2\r\n" + "-ERR nope\r\n" + ":7\r\n" + "*2\r\n:1\r\n+x\r\n")})
	var got []int64
	sink := func(i int, v int64) {
		if i != len(got) {
			t.Fatalf("sink got index %d after %d elements", i, len(got))
		}
		got = append(got, v)
	}
	if err := c.ReceiveInts(sink); err != nil || len(got) != 3 || got[0] != 5 || got[1] != 0 || got[2] != -2 {
		t.Fatalf("array reply: %v, %v", got, err)
	}
	var se *client.ServerError
	if err := c.ReceiveInts(sink); !errors.As(err, &se) || se.Msg != "ERR nope" || c.Err() != nil {
		t.Fatalf("error reply: %v (conn %v)", err, c.Err())
	}
	if err := c.ReceiveInts(sink); err == nil || c.Err() != nil {
		t.Fatalf("integer reply: %v (conn %v)", err, c.Err())
	}
	if err := c.ReceiveInts(func(int, int64) {}); err == nil || c.Err() == nil {
		t.Fatalf("array with a simple string: %v, conn not poisoned", err)
	}

	const reply = "*4\r\n:1\r\n:2\r\n:3\r\n:4\r\n"
	c = client.NewConn(&replyConn{in: strings.NewReader(strings.Repeat(reply, 1001))})
	var sum int64
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.ReceiveInts(func(_ int, v int64) { sum += v }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || sum != 1001*10 {
		t.Fatalf("ReceiveInts: %.2f allocations per reply (sum %d), want 0", allocs, sum)
	}
}
