package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
	"repro/resp"
)

// rawDial opens a bare TCP connection for tests that control segment
// boundaries and read deadlines themselves.
func rawDial(t *testing.T, addr string) (net.Conn, *resp.Reader) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, resp.NewReader(nc)
}

// readWithin reads one reply, failing the test if it does not arrive
// within d.
func readWithin(t *testing.T, nc net.Conn, rd *resp.Reader, d time.Duration, what string) resp.Value {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(d))
	v, err := rd.ReadValue()
	if err != nil {
		t.Fatalf("%s: no reply within %v: %v", what, d, err)
	}
	return v
}

// TestReplyDoesNotWaitForNextFrame: a complete command is answered after
// the read that delivered it, even when the same segment ends in the
// middle of the next command.
func TestReplyDoesNotWaitForNextFrame(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(50, 100, 1))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	nc, rd := rawDial(t, addr)

	ping := "*1\r\n$4\r\nPING\r\n"
	half := len(ping) / 2
	if _, err := nc.Write([]byte(ping + ping[:half])); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v := readWithin(t, nc, rd, 500*time.Millisecond, "PING before a half frame"); string(v.Str) != "PONG" {
		t.Fatalf("first reply = %v, want PONG", v)
	}
	if _, err := nc.Write([]byte(ping[half:])); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v := readWithin(t, nc, rd, 5*time.Second, "completed second PING"); string(v.Str) != "PONG" {
		t.Fatalf("second reply = %v, want PONG", v)
	}
}

// TestCommandLargerThanQueryBuffer: a frame several times the query
// buffer's starting size arrives over many reads; the buffer grows, the
// parser resumes inside the frame each time, and the commands on either
// side of it in the pipeline are answered in order.
func TestCommandLargerThanQueryBuffer(t *testing.T) {
	const n = 2000
	g := gen.ErdosRenyi(n, 8000, 13)
	fresh, _ := bz.Decompose(g.Clone())
	m := kcore.New(g)
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)

	ids := make([]int32, 4*inShrinkCap/8) // >= 8 wire bytes per id
	for i := range ids {
		ids[i] = int32(i % n)
	}
	c.Send("PING")
	c.SendInt32s("CORE.MGET", ids)
	c.Send("CORE.GET", int32(n-1))
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if s, err := client.String(c.Receive()); err != nil || s != "PONG" {
		t.Fatalf("PING = %q, %v", s, err)
	}
	ks, err := client.Ints(c.Receive())
	if err != nil || len(ks) != len(ids) {
		t.Fatalf("CORE.MGET: %d values, %v; want %d", len(ks), err, len(ids))
	}
	for i, v := range ids {
		if int32(ks[i]) != fresh[v] {
			t.Fatalf("CORE.MGET[%d] (v=%d) = %d, want %d", i, v, ks[i], fresh[v])
		}
	}
	if k, err := client.Int(c.Receive()); err != nil || int32(k) != fresh[n-1] {
		t.Fatalf("CORE.GET behind the large frame = %d, %v; want %d", k, err, fresh[n-1])
	}
}

// heldLog is a kcore.OpLog whose AppendBatch parks the applier until the
// test releases it: a write held inside the engine for as long as the
// test likes.
type heldLog struct {
	entered chan struct{} // one token per AppendBatch call
	release chan struct{} // closed to let every call through
}

func (l *heldLog) AppendBatch(removes, inserts []graph.Edge) {
	l.entered <- struct{}{}
	<-l.release
}

func (l *heldLog) Commit() {}

// TestHeldWriteDoesNotStallOtherConns: while one connection's write is
// stuck in the engine, another connection's reads are answered at once —
// a connection waiting on its futures holds up nobody but itself. Then
// the read contract, derived from the command table: every read and
// aggregate command, each on its own connection, replies beside the held
// write, so none of them waits on the update pipeline. A read or
// aggregate command without an entry in readLines fails the test.
func TestHeldWriteDoesNotStallOtherConns(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 3)
	fresh, _ := bz.Decompose(g.Clone())
	lg := &heldLog{entered: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(lg.release) }) }
	m := kcore.New(g, kcore.WithOpLog(lg))
	t.Cleanup(m.Close)
	defer release() // before Close: the applier must be able to finish
	_, addr := startServer(t, m)

	w, wrd := rawDial(t, addr)
	r, rrd := rawDial(t, addr)
	if _, err := w.Write([]byte("CORE.INSERT 1000 1001\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-lg.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the write never reached the op log")
	}

	if _, err := r.Write([]byte("PING\r\nCORE.GET 7\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v := readWithin(t, r, rrd, 200*time.Millisecond, "PING beside a held write"); string(v.Str) != "PONG" {
		t.Fatalf("PING = %v, want PONG", v)
	}
	if v := readWithin(t, r, rrd, 200*time.Millisecond, "CORE.GET beside a held write"); v.Kind != resp.Integer || int32(v.Int) != fresh[7] {
		t.Fatalf("CORE.GET 7 = %v, want %d", v, fresh[7])
	}

	readLines := map[string][]string{
		"PING":         {"PING", "PING hello"},
		"CORE.GET":     {"CORE.GET 7"},
		"CORE.MGET":    {"CORE.MGET 7 8 5000"},
		"CORE.MAXCORE": {"CORE.MAXCORE"},
		"CORE.EPOCH":   {"CORE.EPOCH"},
		"CORE.N":       {"CORE.N"},
		"CORE.HIST":    {"CORE.HIST", "CORE.HIST 0 100"},
		"CORE.KVERT":   {"CORE.KVERT 2"},
		"QUIT":         {"QUIT"},
	}
	var names []string
	for name, cmd := range commands {
		if cmd.family != famRead && cmd.family != famAggregate {
			continue
		}
		if _, ok := readLines[name]; !ok {
			t.Errorf("%s is a read or aggregate command with no entry in readLines", name)
			continue
		}
		if name != "QUIT" {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	names = append(names, "QUIT") // last: its connection closes after the reply
	type sent struct {
		line string
		nc   net.Conn
		rd   *resp.Reader
	}
	var flight []sent
	for _, name := range names {
		for _, line := range readLines[name] {
			nc, rd := rawDial(t, addr)
			if _, err := nc.Write([]byte(line + "\r\n")); err != nil {
				t.Fatalf("%s: write: %v", line, err)
			}
			flight = append(flight, sent{line, nc, rd})
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, f := range flight {
		f.nc.SetReadDeadline(deadline)
		v, err := f.rd.ReadValue()
		if err != nil {
			t.Fatalf("%s beside a held write: no reply within 2s: %v", f.line, err)
		}
		if v.Kind == resp.Error {
			t.Fatalf("%s beside a held write = %v", f.line, v)
		}
	}

	release()
	if v := readWithin(t, w, wrd, 10*time.Second, "released write"); v.Kind != resp.Integer || v.Int != 1 {
		t.Fatalf("CORE.INSERT ack = %v, want 1", v)
	}
}

// TestWaitThenPipelinedReads: CORE.WAIT parks its connection until
// another connection's write publishes, at no cost while it waits; the
// CORE.GETs pipelined behind it in the same segment then run on that
// connection, in order, and observe the write. A WAIT that runs out of
// time says so, and one parked at Shutdown is told it was canceled.
func TestWaitThenPipelinedReads(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	m := kcore.New(g)
	t.Cleanup(m.Close)
	srv, addr := startServer(t, m)

	waiter, wrd := rawDial(t, addr)
	// send writes wire on the waiter and returns once its CORE.WAIT has
	// been dispatched.
	send := func(wire string) {
		t.Helper()
		cmds := srv.Stats().Commands
		if _, err := waiter.Write([]byte(wire)); err != nil {
			t.Fatalf("write: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Commands == cmds {
			if time.Now().After(deadline) {
				t.Fatal("CORE.WAIT never reached dispatch")
			}
			runtime.Gosched()
		}
	}
	target := m.Epoch() + 1
	send(fmt.Sprintf("CORE.WAIT %d 10000\r\nCORE.GET 0\r\nCORE.GET 1\r\nCORE.GET 2\r\n", target))
	// Parked on an idle leader, the WAIT polls nothing.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(500 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= 100 {
		t.Fatalf("a parked CORE.WAIT made %d allocations in 500ms, want < 100", n)
	}
	// Closing the triangle lifts all three vertices from core 1 to core 2.
	if applied, err := client.Int(dial(t, addr).Do("CORE.INSERT", 0, 2)); err != nil || applied != 1 {
		t.Fatalf("CORE.INSERT = %d, %v; want 1", applied, err)
	}
	if v := readWithin(t, waiter, wrd, 10*time.Second, "CORE.WAIT"); v.Kind != resp.Integer || uint64(v.Int) < target {
		t.Fatalf("CORE.WAIT = %v, want an epoch >= %d", v, target)
	}
	for u := 0; u < 3; u++ {
		if v := readWithin(t, waiter, wrd, 5*time.Second, "CORE.GET behind CORE.WAIT"); v.Kind != resp.Integer || v.Int != 2 {
			t.Fatalf("CORE.GET %d behind CORE.WAIT = %v, want 2", u, v)
		}
	}

	send(fmt.Sprintf("CORE.WAIT %d 20\r\n", target+100))
	if v := readWithin(t, waiter, wrd, 5*time.Second, "CORE.WAIT past its timeout"); v.Kind != resp.Error || string(v.Str) != "ERR WAIT timed out" {
		t.Fatalf("CORE.WAIT past its timeout = %v, want ERR WAIT timed out", v)
	}
	send(fmt.Sprintf("CORE.WAIT %d\r\n", target+100))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if v := readWithin(t, waiter, wrd, 5*time.Second, "CORE.WAIT at Shutdown"); v.Kind != resp.Error || string(v.Str) != "ERR WAIT canceled: server shutting down" {
		t.Fatalf("CORE.WAIT at Shutdown = %v, want ERR WAIT canceled: server shutting down", v)
	}
}

// TestShutdownWithIdleConns: Shutdown returns with hundreds of idle
// connections open beside live traffic, and every connection goroutine is
// gone afterwards.
func TestShutdownWithIdleConns(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(200, 600, 9))
	t.Cleanup(m.Close)
	before := runtime.NumGoroutine()

	srv := New(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const idle = 256
	for i := 0; i < idle; i++ {
		rawDial(t, addr)
	}
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		if _, err := client.Int(c.Do("CORE.INSERT", 300+i, 301+i)); err != nil {
			t.Fatalf("CORE.INSERT: %v", err)
		}
		if _, err := client.Int(c.Do("CORE.GET", 300+i)); err != nil {
			t.Fatalf("CORE.GET: %v", err)
		}
	}
	if got := srv.Stats().ConnsActive; got != idle+1 {
		t.Fatalf("conns_active = %d, want %d", got, idle+1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := srv.Stats().ConnsActive; got != 0 {
		t.Fatalf("conns_active after Shutdown = %d, want 0", got)
	}
	// Shutdown's own waiter goroutine may still be returning.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Shutdown = %d, want <= %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestConnScratchIsolation hammers one server with concurrent pipelining
// clients and verifies every reply against an independently computed
// decomposition. Each connection owns its query buffer, argument slices,
// id scratch and reply buffer; this test (run under -race in CI) proves
// that scratch never leaks across connections — a wrong core number or a
// torn reply would surface here immediately.
func TestConnScratchIsolation(t *testing.T) {
	const n = 2000
	g := gen.ErdosRenyi(n, 8000, 7)
	fresh, _ := bz.Decompose(g.Clone())
	m := kcore.New(g, kcore.WithWorkers(2))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)

	const (
		clients = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for r := 0; r < rounds; r++ {
				// One pipelined burst mixing the scratch users: PING
				// (shared reply), CORE.GET (query-buffer arg), CORE.MGET
				// (id scratch), and a probe unique to this client.
				vs := []int32{rng.Int31n(n), rng.Int31n(n), rng.Int31n(n), int32(ci)}
				c.Send("PING")
				c.Send("CORE.GET", vs[0])
				c.Send("CORE.MGET", vs[0], vs[1], vs[2], vs[3])
				if err := c.Flush(); err != nil {
					errc <- err
					return
				}
				if s, err := client.String(c.Receive()); err != nil || s != "PONG" {
					errc <- fmt.Errorf("client %d round %d: PING = %q, %v", ci, r, s, err)
					return
				}
				k, err := client.Int(c.Receive())
				if err != nil || int32(k) != fresh[vs[0]] {
					errc <- fmt.Errorf("client %d round %d: CORE.GET %d = %d, %v; want %d",
						ci, r, vs[0], k, err, fresh[vs[0]])
					return
				}
				ks, err := client.Ints(c.Receive())
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: CORE.MGET: %v", ci, r, err)
					return
				}
				for i, v := range vs {
					if int32(ks[i]) != fresh[v] {
						errc <- fmt.Errorf("client %d round %d: CORE.MGET[%d] (v=%d) = %d, want %d",
							ci, r, i, v, ks[i], fresh[v])
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMalformedWriteInBurst: an odd-id-count CORE.INSERT and an invalid-id
// CORE.REMOVE inside a pipelined write burst get their error replies in
// place and commit no write slot. Every write reply comes in command order
// with its batch's applied count, and a second burst reuses the first
// one's slots: the same futures, and no edge buffer lent to two slots.
func TestMalformedWriteInBurst(t *testing.T) {
	const n = 64
	m := kcore.New(graph.MustFromEdges(n, nil), kcore.WithWorkers(1))
	t.Cleanup(m.Close)
	mirror := graph.New(n)
	var out bytes.Buffer
	c := &conn{srv: New(m), wr: resp.NewWriterSize(&out, 16<<10)}
	rd := resp.NewReader(&out)

	// Every write adds or removes one distinct edge, so its reply is the
	// edge count of the coalesced batch that covered it: the writes between
	// two error replies settle as runs of batches, each run replying its
	// own length.
	var burst []byte
	var want []string // "w" a write; "=k" an integer reply; else an error substring
	insert := func(u, v int) {
		burst = appendRESPCommand(burst, "CORE.INSERT", strconv.Itoa(u), strconv.Itoa(v))
		want = append(want, "w")
		mirror.AddEdge(int32(u), int32(v))
	}
	remove := func(u, v int) {
		burst = appendRESPCommand(burst, "CORE.REMOVE", strconv.Itoa(u), strconv.Itoa(v))
		want = append(want, "w")
		mirror.RemoveEdge(int32(u), int32(v))
	}
	run := func(name string) {
		t.Helper()
		runBurst(t, c, burst)
		var writes []int64
		settle := func(i int) {
			for j := 0; j < len(writes); {
				k := int(writes[j])
				if k < 1 || j+k > len(writes) || slices.ContainsFunc(writes[j:j+k], func(r int64) bool { return r != writes[j] }) {
					t.Fatalf("%s: write replies %v before reply %d are no run of coalesced batches", name, writes, i)
				}
				j += k
			}
			writes = writes[:0]
		}
		for i, w := range want {
			v, err := rd.ReadValue()
			if err != nil {
				t.Fatalf("%s: reply %d: %v", name, i, err)
			}
			switch {
			case w == "w" && v.Kind == resp.Integer:
				writes = append(writes, v.Int)
			case w == "w":
				t.Fatalf("%s: reply %d = %v, want a write's applied count", name, i, v)
			case strings.HasPrefix(w, "="):
				settle(i)
				if v.Kind != resp.Integer || strconv.FormatInt(v.Int, 10) != w[1:] {
					t.Fatalf("%s: reply %d = %v, want %s", name, i, v, w[1:])
				}
			default:
				settle(i)
				if v.Kind != resp.Error || !strings.Contains(string(v.Str), w) {
					t.Fatalf("%s: reply %d = %v, want an error containing %q", name, i, v, w)
				}
			}
		}
		settle(len(want))
		if out.Len() != 0 {
			t.Fatalf("%s: %d bytes of replies beyond the %d commands", name, out.Len(), len(want))
		}
		if len(c.pending) != 0 || cap(c.pending) > maxWriteSlots {
			t.Fatalf("%s: %d slots owed, %d kept after the burst", name, len(c.pending), cap(c.pending))
		}
		burst, want = burst[:0], want[:0]
	}

	insert(0, 1)
	insert(1, 2)
	insert(0, 2)
	burst = appendRESPCommand(burst, "CORE.INSERT", "5", "6", "7")
	want = append(want, "odd id count")
	insert(3, 4)
	insert(4, 5)
	// The first pair is parsed into the slot's buffer before the bad id.
	burst = appendRESPCommand(burst, "CORE.REMOVE", "3", "4", "5", "x")
	want = append(want, "invalid vertex id")
	remove(0, 1)
	insert(6, 7)
	burst = appendRESPCommand(burst, "CORE.GET", "2")
	want = append(want, "=1")
	run("first burst")
	first := slices.Clone(c.pending[:cap(c.pending)])

	insert(0, 1)
	for u := 10; u < 30; u++ {
		insert(u, u+1)
	}
	burst = appendRESPCommand(burst, "CORE.GET", "0")
	want = append(want, "=2")
	run("second burst")

	// The first burst owed at most 3 writes at once; slots past those were
	// grown but never taken.
	slots := c.pending[:cap(c.pending)]
	for i, w := range first {
		if (w.pd == nil) != (i >= 3) || w.pd != nil && slots[i].pd != w.pd {
			t.Fatalf("slot %d: future %p after the first burst, %p after the second", i, w.pd, slots[i].pd)
		}
	}
	seenPd := map[*kcore.Pending]bool{}
	seenBuf := map[*graph.Edge]bool{}
	for i, w := range slots {
		if w.pd == nil && i >= 21 { // the second burst owed 21 writes
			continue
		}
		if w.pd == nil || seenPd[w.pd] {
			t.Fatalf("slot %d: future %p missing or shared", i, w.pd)
		}
		seenPd[w.pd] = true
		if cap(w.edges) == 0 {
			t.Fatalf("slot %d has no edge buffer", i)
		}
		if b := &w.edges[:1][0]; seenBuf[b] {
			t.Fatalf("slot %d shares its edge buffer with another slot", i)
		} else {
			seenBuf[b] = true
		}
	}
	truth, _ := bz.Decompose(mirror)
	if got := m.CoreNumbers(); !slices.Equal(got, truth) {
		t.Fatalf("cores after both bursts: %v, want %v", got, truth)
	}
}

// TestParkedConnReleasesItsPin: a connection that read a snapshot and then
// parked in CORE.WAIT holds no pin, so while it waits the publisher keeps
// recycling the pages another connection's writes retire — at least 90 %
// of the pages 100 delta publications dirty come from the free list. A
// pin kept across the wait would hold back every page of the snapshot it
// read: one in three of those dirtied here. Afterwards a GET, INSERT, GET
// burst on the woken connection reads its own write.
func TestParkedConnReleasesItsPin(t *testing.T) {
	// One path a–b–c at the start of each of 32 snapshot pages (1024
	// vertices each): closing a path into a triangle lifts its vertices
	// from core 1 to core 2, so every write dirties exactly its page.
	const pages, pageSize = 32, 1024
	var base []graph.Edge
	for p := int32(0); p < pages; p++ {
		a := p * pageSize
		base = append(base, graph.Edge{U: a, V: a + 1}, graph.Edge{U: a + 1, V: a + 2})
	}
	m := kcore.New(graph.MustFromEdges(pages*pageSize, base), kcore.WithWorkers(1))
	t.Cleanup(m.Close)
	srv, addr := startServer(t, m)
	writer := dial(t, addr)
	closed := make([]bool, pages)
	toggle := func(p int) {
		t.Helper()
		cmd := "CORE.INSERT"
		if closed[p] {
			cmd = "CORE.REMOVE"
		}
		a := p * pageSize
		if applied, err := client.Int(writer.Do(cmd, a, a+2)); err != nil || applied != 1 {
			t.Fatalf("%s %d %d = %d, %v; want 1", cmd, a, a+2, applied, err)
		}
		closed[p] = !closed[p]
	}
	// Warm up: every page once, so each is the publisher's own copy.
	for p := range pages {
		toggle(p)
	}

	// The parked connection pins a snapshot with its GET, then waits for
	// an epoch only the 101st write below reaches.
	const writes = 100
	parked, prd := rawDial(t, addr)
	target := m.Epoch() + writes + 1
	dispatched := srv.Stats().Commands
	if _, err := fmt.Fprintf(parked, "CORE.GET 0\r\nCORE.WAIT %d 30000\r\n", target); err != nil {
		t.Fatalf("write: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Commands == dispatched { // the WAIT is counted as it parks
		if time.Now().After(deadline) {
			t.Fatal("CORE.WAIT never reached dispatch")
		}
		runtime.Gosched()
	}

	before := m.ServingStats()
	for i := range writes {
		toggle(i % pages)
	}
	after := m.ServingStats()
	if b := after.Batches - before.Batches; b != writes {
		t.Fatalf("%d engine batches for %d writes, want one each", b, writes)
	}
	dirty, recycled := after.DirtyPages-before.DirtyPages, after.RecycledPages-before.RecycledPages
	t.Logf("%d writes beside a parked connection: %d dirty pages, %d recycled", writes, dirty, recycled)
	if dirty < writes || 10*recycled < 9*dirty {
		t.Fatalf("%d of %d dirty pages recycled, want at least 90%%", recycled, dirty)
	}

	toggle(writes % pages) // wakes the parked connection
	if v := readWithin(t, parked, prd, 10*time.Second, "CORE.GET before CORE.WAIT"); v.Kind != resp.Integer || v.Int != 2 {
		t.Fatalf("CORE.GET 0 = %v, want 2", v)
	}
	if v := readWithin(t, parked, prd, 10*time.Second, "CORE.WAIT"); v.Kind != resp.Integer || uint64(v.Int) < target {
		t.Fatalf("CORE.WAIT = %v, want an epoch >= %d", v, target)
	}
	// Vertices 10 and 11 are isolated: the second GET must see the edge.
	if _, err := parked.Write([]byte("CORE.GET 10\r\nCORE.INSERT 10 11\r\nCORE.GET 10\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i, want := range []int64{0, 1, 1} {
		if v := readWithin(t, parked, prd, 10*time.Second, "GET/INSERT/GET burst"); v.Kind != resp.Integer || v.Int != want {
			t.Fatalf("reply %d of the GET/INSERT/GET burst = %v, want %d", i, v, want)
		}
	}
}
