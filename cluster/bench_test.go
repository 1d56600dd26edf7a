package cluster_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/cluster"
	"repro/graph"
	"repro/resp"
)

// cannedShard is a stand-in shard server that answers every command from
// prepared bytes, allocating nothing once its connection's buffers are
// warm: a CORE.INSERT or CORE.REMOVE gets ":1", a CORE.MGET an array
// holding each local id modulo cannedMod, a PING "+PONG". Driving a
// router against it leaves only the router's and the client's
// allocations in the process-wide counts testing.AllocsPerRun reads.
// With extra > 0 every CORE.MGET reply carries that many integers more
// than it was asked for, as a faulty peer's would.
type cannedShard struct {
	ln    net.Listener
	wg    sync.WaitGroup
	extra int
}

const cannedMod = 7

func startCannedShard(tb testing.TB, extra int) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	s := &cannedShard{ln: ln, extra: extra}
	var conns []net.Conn
	var mu sync.Mutex
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(nc)
			}()
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		s.wg.Wait()
	})
	return ln.Addr().String()
}

// serve parses each read's commands in place and answers them all with
// one write.
func (s *cannedShard) serve(nc net.Conn) {
	var (
		p   resp.Parser
		cmd resp.Command
		in  = make([]byte, 0, 64<<10)
		out []byte
	)
	for {
		if len(in) == cap(in) {
			in = slices.Grow(in, cap(in))
		}
		n, err := nc.Read(in[len(in):cap(in)])
		if err != nil {
			return
		}
		in = in[:len(in)+n]
		out = out[:0]
		off := 0
		for {
			k, err := p.Parse(in[off:], &cmd)
			off += k
			if errors.Is(err, resp.ErrIncomplete) {
				break
			}
			if err != nil {
				return
			}
			out = s.reply(out, cmd.Args)
		}
		in = in[:copy(in, in[off:])]
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

func (s *cannedShard) reply(out []byte, args [][]byte) []byte {
	switch {
	case bytes.Equal(args[0], []byte("CORE.MGET")):
		out = append(out, '*')
		out = strconv.AppendInt(out, int64(len(args)-1+s.extra), 10)
		out = append(out, '\r', '\n')
		for _, a := range args[1:] {
			id := 0
			for _, d := range a {
				id = 10*id + int(d-'0')
			}
			out = append(out, ':')
			out = strconv.AppendInt(out, int64(id%cannedMod), 10)
			out = append(out, '\r', '\n')
		}
		for range s.extra {
			out = append(out, ":0\r\n"...)
		}
		return out
	case bytes.Equal(args[0], []byte("PING")):
		return append(out, "+PONG\r\n"...)
	default:
		return append(out, ":1\r\n"...)
	}
}

// BenchmarkRouterAllocs asserts what a routed round trip allocates on the
// router's side once its pooled scratch is warm: a write routed over two
// shards (InsertEdges and RemoveEdges alternately, 256 and 2048 edges,
// one in ten crossing shards) allocates nothing, whatever its size, and
// a 256-id MGet allocates only the []int32 it returns. The shards are
// cannedShard servers, so the counts are the cluster's and the client's
// alone. CI runs it with -benchtime=1x as a regression tripwire.
func BenchmarkRouterAllocs(b *testing.B) {
	const capacity = 1 << 16 // shard 0 owns [0, 32768), shard 1 the rest
	m, err := cluster.EqualRanges(capacity, [][]string{{startCannedShard(b, 0)}, {startCannedShard(b, 0)}})
	if err != nil {
		b.Fatal(err)
	}
	c := cluster.Connect(m)
	defer c.Close()
	c.DisableHealthPings() // an idle connection's PING is not the call's cost

	rng := rand.New(rand.NewSource(1))
	routed := func(n int) []graph.Edge {
		es := make([]graph.Edge, n)
		for i := range es {
			u := rng.Int31n(capacity)
			v := u ^ 1 // same shard
			if i%10 == 0 {
				v = (u + capacity/2) % capacity // the other shard
			}
			es[i] = graph.Edge{U: u, V: v}
		}
		return es
	}
	for _, size := range []int{256, 2048} {
		edges := routed(size)
		b.Run("write"+strconv.Itoa(size), func(b *testing.B) {
			insert := false
			write := func() {
				insert = !insert
				var err error
				if insert {
					err = c.InsertEdges(edges, nil)
				} else {
					err = c.RemoveEdges(edges, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			write() // warm: connections, scratch, buffers
			write()
			allocs := testing.AllocsPerRun(100, write)
			if allocs > 0 {
				b.Fatalf("a %d-edge routed write allocates %.0f times, want 0", size, allocs)
			}
			b.ResetTimer()
			for range b.N {
				write()
			}
			b.ReportMetric(allocs, "allocs/call")
		})
	}

	b.Run("mget256", func(b *testing.B) {
		ids := make([]int32, 256)
		for i := range ids {
			ids[i] = rng.Int31n(capacity)
		}
		var out []int32
		mget := func() {
			var err error
			if out, err = c.MGet(ids); err != nil {
				b.Fatal(err)
			}
		}
		mget() // warm
		for j, g := range ids {
			// A shard's local id for an owned vertex is its offset in
			// the shard's band, which the canned reply folds mod 7.
			if want := g % (capacity / 2) % cannedMod; out[j] != want {
				b.Fatalf("MGet position %d (vertex %d) = %d, want %d", j, g, out[j], want)
			}
		}
		allocs := testing.AllocsPerRun(100, mget)
		if allocs > 1 {
			b.Fatalf("a %d-id MGet allocates %.0f times, want 1 (its result)", len(ids), allocs)
		}
		b.ResetTimer()
		for range b.N {
			mget()
		}
		b.ReportMetric(allocs, "allocs/call")
	})
}
