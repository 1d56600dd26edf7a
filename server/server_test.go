package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/internal/bz"
	"repro/kcore"
	"repro/resp"
)

// startServer boots a server over a fresh maintainer on a loopback
// listener and returns it with its address; everything is torn down with
// the test.
func startServer(t *testing.T, m *kcore.Maintainer, opts ...Option) (*Server, string) {
	t.Helper()
	srv := New(m, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, client.WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCommandSurface(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 7)
	fresh, _ := bz.Decompose(g.Clone())
	m := kcore.New(g, kcore.WithWorkers(2))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	if s, err := client.String(c.Do("PING")); err != nil || s != "PONG" {
		t.Fatalf("PING = %q, %v", s, err)
	}
	if s, err := client.String(c.Do("ping", "hello")); err != nil || s != "hello" {
		t.Fatalf("ping hello = %q, %v (names are case-insensitive)", s, err)
	}

	for _, v := range []int32{0, 1, 250, 499} {
		k, err := client.Int(c.Do("CORE.GET", v))
		if err != nil {
			t.Fatalf("CORE.GET %d: %v", v, err)
		}
		if int32(k) != fresh[v] {
			t.Fatalf("CORE.GET %d = %d, want %d", v, k, fresh[v])
		}
	}
	// Unseen ids are isolated vertices: core 0, not an error.
	if k, err := client.Int(c.Do("CORE.GET", 100000)); err != nil || k != 0 {
		t.Fatalf("CORE.GET beyond N = %d, %v; want 0", k, err)
	}

	ks, err := client.Ints(c.Do("CORE.MGET", 0, 1, 2, 499))
	if err != nil {
		t.Fatalf("CORE.MGET: %v", err)
	}
	for i, v := range []int32{0, 1, 2, 499} {
		if int32(ks[i]) != fresh[v] {
			t.Fatalf("CORE.MGET[%d] = %d, want %d", i, ks[i], fresh[v])
		}
	}

	maxCore, err := client.Int(c.Do("CORE.MAXCORE"))
	if err != nil || int32(maxCore) != bz.MaxCore(fresh) {
		t.Fatalf("CORE.MAXCORE = %d, %v, want %d", maxCore, err, bz.MaxCore(fresh))
	}

	hist, err := client.Ints(c.Do("CORE.HIST"))
	if err != nil {
		t.Fatalf("CORE.HIST: %v", err)
	}
	var histTotal, want0 int64
	for _, n := range hist {
		histTotal += n
	}
	if histTotal != 500 {
		t.Fatalf("CORE.HIST sums to %d, want 500", histTotal)
	}
	for _, k := range fresh {
		if k == 0 {
			want0++
		}
	}
	if hist[0] != want0 {
		t.Fatalf("CORE.HIST[0] = %d, want %d", hist[0], want0)
	}

	// KVERT 0 counts everything; KVERT beyond the max core counts nothing.
	if n, err := client.Int(c.Do("CORE.KVERT", 0)); err != nil || n != 500 {
		t.Fatalf("CORE.KVERT 0 = %d, %v", n, err)
	}
	if n, err := client.Int(c.Do("CORE.KVERT", maxCore+1)); err != nil || n != 0 {
		t.Fatalf("CORE.KVERT max+1 = %d, %v", n, err)
	}

	if n, err := client.Int(c.Do("CORE.N")); err != nil || n != 500 {
		t.Fatalf("CORE.N = %d, %v", n, err)
	}
	if _, err := client.Int(c.Do("CORE.EPOCH")); err != nil {
		t.Fatalf("CORE.EPOCH: %v", err)
	}

	// A write round trip: insert a triangle among fresh vertices (grows
	// the universe), check, remove it again.
	if applied, err := client.Int(c.Do("CORE.INSERT", 600, 601, 601, 602, 602, 600)); err != nil || applied != 3 {
		t.Fatalf("CORE.INSERT = %d, %v; want 3 applied", applied, err)
	}
	if k, err := client.Int(c.Do("CORE.GET", 600)); err != nil || k != 2 {
		t.Fatalf("core of triangle vertex = %d, %v, want 2", k, err)
	}
	if n, err := client.Int(c.Do("CORE.N")); err != nil || n != 603 {
		t.Fatalf("CORE.N after growth = %d, %v, want 603", n, err)
	}
	if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK = %q, %v", s, err)
	}
	if applied, err := client.Int(c.Do("CORE.REMOVE", 600, 601, 601, 602, 602, 600)); err != nil || applied != 3 {
		t.Fatalf("CORE.REMOVE = %d, %v; want 3 applied", applied, err)
	}

	// CORE.GROW pre-allocates isolated vertices.
	if n, err := client.Int(c.Do("CORE.GROW", 100)); err != nil || n != 703 {
		t.Fatalf("CORE.GROW 100 = %d, %v, want 703", n, err)
	}

	if _, err := client.Int(c.Do("CORE.FLUSH")); err != nil {
		t.Fatalf("CORE.FLUSH: %v", err)
	}

	stats := statsMap(t, c)
	for _, s := range [][2]string{
		{"kcored_info", `engine="ParallelOrder"`},
		{"kcored_epoch", ""},
		{"kcored_connections_active", ""},
		{"kcored_commands_total", ""},
		{"kcored_pipeline_depth_bucket", ""},
		{"kcored_publishes_total", `kind="delta"`},
	} {
		if !hasSeries(stats, s[0], s[1]) {
			t.Fatalf("CORE.STATS has no %s{%s} (got %v)", s[0], s[1], stats)
		}
	}
	if n := stats["kcored_vertices"]; n != 703 {
		t.Fatalf("CORE.STATS kcored_vertices = %g, want 703", n)
	}

	if s, err := client.String(c.Do("QUIT")); err != nil || s != "OK" {
		t.Fatalf("QUIT = %q, %v", s, err)
	}
}

func TestErrorReplies(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(100, 300, 1))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	cases := []struct {
		cmd  string
		args []any
		want string
	}{
		{"NOSUCH", nil, "unknown command"},
		{"CORE.GET", nil, "wrong number of arguments"},
		{"CORE.GET", []any{1, 2}, "wrong number of arguments"},
		{"CORE.GET", []any{"abc"}, "invalid vertex id"},
		{"CORE.GET", []any{-4}, "invalid vertex id"},
		{"CORE.MGET", []any{1, "x"}, "invalid vertex id"},
		{"CORE.INSERT", []any{1, 2, 3}, "vertex pairs"},
		{"CORE.INSERT", []any{1, "y"}, "invalid vertex id"},
		{"CORE.GROW", []any{-1}, "invalid vertex count"},
		{"CORE.KVERT", []any{"z"}, "invalid core value"},
	}
	for _, tc := range cases {
		_, err := c.Do(tc.cmd, tc.args...)
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s %v: err = %v, want server error", tc.cmd, tc.args, err)
		}
		if !strings.Contains(se.Msg, tc.want) {
			t.Fatalf("%s %v: error %q does not mention %q", tc.cmd, tc.args, se.Msg, tc.want)
		}
		if c.Err() != nil {
			t.Fatalf("server error poisoned the connection: %v", c.Err())
		}
	}
	// The connection still works after a parade of errors.
	if _, err := client.Int(c.Do("CORE.GET", 5)); err != nil {
		t.Fatalf("CORE.GET after errors: %v", err)
	}
	// Error replies never submitted anything: the graph is untouched.
	if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK = %q, %v", s, err)
	}
}

// TestPipelinedWritesCoalesce pins the tentpole property: a pipelined
// write burst on one connection shares engine rounds via the
// maintainer's coalescing pipeline instead of paying one round per
// command, while replies stay in command order and reads observe every
// earlier write.
func TestPipelinedWritesCoalesce(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(1000, 3000, 3), kcore.WithWorkers(2))
	t.Cleanup(m.Close)
	srv, addr := startServer(t, m)
	c := dial(t, addr)

	before := m.ServingStats()
	const burst = 200
	// Insert a long path among fresh vertices, one edge per command, then
	// read one of its vertices — all in a single pipelined flight.
	base := int32(5000)
	for i := int32(0); i < burst; i++ {
		if err := c.Send("CORE.INSERT", base+i, base+i+1); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := c.Send("CORE.GET", base); err != nil {
		t.Fatalf("Send read: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < burst; i++ {
		if _, err := client.Int(c.Receive()); err != nil {
			t.Fatalf("Receive %d: %v", i, err)
		}
	}
	k, err := client.Int(c.Receive())
	if err != nil || k != 1 {
		t.Fatalf("pipelined read-your-writes: core = %d, %v, want 1", k, err)
	}

	after := m.ServingStats()
	rounds := after.Batches - before.Batches
	if rounds >= burst/2 {
		t.Fatalf("pipelined burst of %d writes cost %d engine batches; expected coalescing", burst, rounds)
	}
	t.Logf("%d pipelined writes -> %d engine batches", burst, rounds)

	st := srv.Stats()
	if st.PipelineDepth.Max < 2 {
		t.Fatalf("pipeline depth never exceeded 1: %+v", st.PipelineDepth)
	}
	if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK = %q, %v", s, err)
	}
}

// TestInterleavedPipelineOrdering pins last-op-wins ordering through the
// wire: INSERT,REMOVE,INSERT,REMOVE of one edge in a single pipelined
// flight must end with the edge absent, every time.
func TestInterleavedPipelineOrdering(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(100, 0, 1))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	for round := 0; round < 30; round++ {
		c.Send("CORE.INSERT", 1, 2)
		c.Send("CORE.REMOVE", 1, 2)
		c.Send("CORE.INSERT", 1, 2)
		c.Send("CORE.REMOVE", 1, 2)
		c.Send("CORE.GET", 1)
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, err := c.Receive(); err != nil {
				t.Fatalf("Receive: %v", err)
			}
		}
		k, err := client.Int(c.Receive())
		if err != nil || k != 0 {
			t.Fatalf("round %d: core after insert/remove churn = %d, %v, want 0", round, k, err)
		}
	}
	if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK = %q, %v", s, err)
	}
}

// TestErrorReplyOrderInPipeline pins reply ordering when an immediate
// error path fires mid-burst: the owed write replies must come out
// before the error frame, or every later reply is misattributed.
func TestErrorReplyOrderInPipeline(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(100, 0, 1))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	c.Send("CORE.INSERT", 1, 2)
	c.Send("NOSUCH")
	c.Send("CORE.INSERT", 3, "bad-id") // write-path parse error
	c.Send("CORE.GET", 1)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v, err := client.Int(c.Receive()); err != nil || v != 1 {
		t.Fatalf("reply 1 (insert) = %d, %v; want :1", v, err)
	}
	if _, err := c.Receive(); !strings.Contains(errText(err), "unknown command") {
		t.Fatalf("reply 2 = %v, want unknown-command error", err)
	}
	if _, err := c.Receive(); !strings.Contains(errText(err), "invalid vertex id") {
		t.Fatalf("reply 3 = %v, want invalid-id error", err)
	}
	if v, err := client.Int(c.Receive()); err != nil || v != 1 {
		t.Fatalf("reply 4 (get) = %d, %v; want :1", v, err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestProtocolErrorClosesConn(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(50, 100, 1))
	t.Cleanup(m.Close)
	srv, addr := startServer(t, m)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("*-5\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	rd := resp.NewReader(nc)
	v, err := rd.ReadValue()
	if err != nil || v.Kind != resp.Error {
		t.Fatalf("reply = %v, %v; want error reply", v, err)
	}
	// The server must then close; the next read sees EOF.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rd.ReadValue(); err == nil {
		t.Fatalf("connection still open after protocol error")
	}
	if srv.Stats().ProtoErrors == 0 {
		t.Fatalf("proto_errors not counted")
	}
}

func TestInlineCommands(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(50, 100, 1))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("PING\r\ncore.get 3\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	rd := resp.NewReader(nc)
	if v, err := rd.ReadValue(); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("inline PING = %v, %v", v, err)
	}
	if v, err := rd.ReadValue(); err != nil || v.Kind != resp.Integer {
		t.Fatalf("inline core.get = %v, %v", v, err)
	}
}

// TestGracefulShutdown verifies Shutdown against a connection left
// blocked mid-frame (two complete CORE.INSERTs followed by a truncated
// third): both complete writes are applied and their replies delivered,
// the nudged connection closes without waiting for the rest of the
// frame, and the listener refuses new work.
func TestGracefulShutdown(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(500, 1500, 5))
	t.Cleanup(m.Close)
	srv := New(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	wire := "*3\r\n$11\r\nCORE.INSERT\r\n$3\r\n600\r\n$3\r\n700\r\n" +
		"*3\r\n$11\r\nCORE.INSERT\r\n$3\r\n601\r\n$3\r\n701\r\n" +
		"*3\r\n$11\r\nCORE.INSERT\r\n$3\r\n602" // truncated: never completed
	if _, err := nc.Write([]byte(wire)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Wait until both complete commands are dispatched.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().WriteCmds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server never dispatched the write burst: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// Both in-flight replies must have been applied, flushed and
	// delivered before the close.
	rd := resp.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		// The shared applied count is 2 when the pair coalesced into one
		// engine batch, 1 per reply when they ran separately.
		v, err := rd.ReadValue()
		if err != nil || v.Kind != resp.Integer || v.Int < 1 {
			t.Fatalf("reply %d after shutdown = %v, %v; want a positive integer", i, v, err)
		}
	}
	// And the writes are in the graph.
	if err := m.Check(); err != nil {
		t.Fatalf("post-shutdown check: %v", err)
	}
	if got := m.Graph().M(); got != 1500+2 {
		t.Fatalf("edges after shutdown = %d, want 1502", got)
	}

	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatalf("listener still accepting after shutdown")
	}
}

// TestCloseBesideAccepts: Close waits for the goroutine of every
// connection Serve accepted. Serve counts a connection in flight inside
// the critical section that checks closing, so Close's wait can neither
// miss a connection accepted beside it nor race the count's increment
// from zero (the race detector reports the latter). Each round closes a
// server that is accepting its first, held connection while eight
// clients dial.
func TestCloseBesideAccepts(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(50, 150, 3))
	t.Cleanup(m.Close)
	for round := 0; round < 200; round++ {
		srv := New(m)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addr := ln.Addr().String()
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		held, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		var dialers sync.WaitGroup
		for range 8 {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				if nc, err := net.Dial("tcp", addr); err == nil {
					nc.Close()
				}
			}()
		}
		srv.Close()
		if err := <-served; err != ErrServerClosed {
			t.Fatalf("round %d: Serve returned %v, want ErrServerClosed", round, err)
		}
		if n := srv.Stats().ConnsActive; n != 0 {
			t.Fatalf("round %d: %d connections still open after Close", round, n)
		}
		dialers.Wait()
		held.Close()
	}
}

// TestRangeAggregates pins the id-range form of CORE.HIST — the
// per-shard owned-band scan the cluster router's Hist and KVert merge —
// and that CORE.KVERT takes no range.
func TestRangeAggregates(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 11)
	fresh, _ := bz.Decompose(g.Clone())
	m := kcore.New(g, kcore.WithWorkers(2))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	for _, w := range [][2]int{{0, 500}, {0, 0}, {100, 350}, {499, 500}, {450, 900}} {
		lo, hi := w[0], w[1]
		chi := min(hi, 500)
		want := []int64{0}
		for v := lo; v < chi; v++ {
			k := fresh[v]
			for int(k) >= len(want) {
				want = append(want, 0)
			}
			want[k]++
		}
		hist, err := client.Ints(c.Do("CORE.HIST", lo, hi))
		if err != nil {
			t.Fatalf("CORE.HIST %d %d: %v", lo, hi, err)
		}
		if len(hist) != len(want) {
			t.Fatalf("CORE.HIST %d %d: %d bins, want %d", lo, hi, len(hist), len(want))
		}
		for k := range want {
			if hist[k] != want[k] {
				t.Fatalf("CORE.HIST %d %d bin %d = %d, want %d", lo, hi, k, hist[k], want[k])
			}
		}
	}

	// Arity and argument errors on the range form; KVERT has none.
	for _, tc := range []struct {
		args []any
		want string
	}{
		{[]any{"CORE.HIST", 1}, "id range"},
		{[]any{"CORE.HIST", 1, 2, 3}, "wrong number of arguments"},
		{[]any{"CORE.HIST", "x", 2}, "invalid vertex id"},
		{[]any{"CORE.KVERT", 1, 0, 10}, "wrong number of arguments"},
	} {
		_, err := c.Do(tc.args[0].(string), tc.args[1:]...)
		var se *client.ServerError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, tc.want) {
			t.Fatalf("%v: err = %v, want server error mentioning %q", tc.args, err, tc.want)
		}
	}
}
