package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
)

// TestServeAllEnginesConcurrent is the end-to-end differential test of
// the networked stack: N concurrent pipelined clients fire mixed
// reads/writes at an in-process server — on every registered engine —
// and when the dust settles, a full CORE.GET sweep over the wire must be
// byte-equal to a fresh BZ decomposition of the graph the surviving
// writes describe. Run under -race it also exercises the
// connection-goroutine/applier/snapshot interplay.
//
// Determinism of the final state: every client owns a disjoint slice of
// a shared non-edge pool plus a disjoint range of fresh (beyond-N)
// vertex ids. The churn phase inserts and removes freely inside that
// ownership; the final phase re-inserts the client's full slice and
// removes all its fresh-range edges, so the quiescent graph is exactly
// base + every pool slice, with the grown vertices isolated — computable
// without observing the race.
func TestServeAllEnginesConcurrent(t *testing.T) {
	const (
		nBase    = 1500
		mBase    = 5000
		nClients = 6
		perCli   = 120 // pool edges per client
		rounds   = 8
		depth    = 32 // pipeline depth during churn
	)
	for _, alg := range kcore.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			base := gen.ErdosRenyi(nBase, mBase, 42)
			baseEdges := base.Edges()
			pool := gen.SampleNonEdges(base, nClients*perCli, 43)
			m := kcore.New(base, kcore.WithAlgorithm(alg), kcore.WithWorkers(4))
			t.Cleanup(m.Close)
			srv, addr := startServer(t, m)

			var wg sync.WaitGroup
			errc := make(chan error, nClients)
			for cli := 0; cli < nClients; cli++ {
				wg.Add(1)
				go func(cli int) {
					defer wg.Done()
					errc <- runMixedClient(addr, cli, pool[cli*perCli:(cli+1)*perCli], rounds, depth)
				}(cli)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Quiescent expected graph: base + the whole pool; fresh-range
			// vertices isolated (every client removed its growth edges).
			c := dial(t, addr)
			if _, err := client.Int(c.Do("CORE.FLUSH")); err != nil {
				t.Fatalf("CORE.FLUSH: %v", err)
			}
			n, err := client.Int(c.Do("CORE.N"))
			if err != nil {
				t.Fatalf("CORE.N: %v", err)
			}
			if n < nBase {
				t.Fatalf("universe shrank? N = %d", n)
			}
			expectG := graph.MustFromEdges(int(n), append(append([]graph.Edge(nil), baseEdges...), pool...))
			want, _ := bz.Decompose(expectG)

			got := sweepCores(t, c, int(n))
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("core[%d] over the wire = %d, fresh BZ = %d", v, got[v], want[v])
				}
			}
			if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
				t.Fatalf("CORE.CHECK = %q, %v", s, err)
			}
			st := srv.Stats()
			if st.Commands == 0 || st.WriteCmds == 0 {
				t.Fatalf("suspicious server stats after load: %+v", st)
			}
			t.Logf("%s: %d commands (%d writes), pipeline depth p99 %.0f",
				alg, st.Commands, st.WriteCmds, st.PipelineDepth.P99)
		})
	}
}

// runMixedClient drives one pipelined connection: rounds of interleaved
// reads and writes over its owned edges, then the deterministic final
// phase (own pool fully inserted, own growth range fully removed).
func runMixedClient(addr string, cli int, own []graph.Edge, rounds, depth int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", cli, err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(int64(1000 + cli)))

	// A private range of fresh vertex ids, far above the base universe,
	// for growth traffic.
	freshLo := int32(100_000 + cli*100)
	var growth []graph.Edge
	for i := int32(0); i < 40; i++ {
		growth = append(growth, graph.Edge{U: freshLo + i, V: freshLo + (i+1)%40})
	}

	inflight := 0
	settle := func() error {
		if err := c.Flush(); err != nil {
			return err
		}
		for ; inflight > 0; inflight-- {
			if _, err := c.Receive(); err != nil {
				return err
			}
		}
		return nil
	}

	for r := 0; r < rounds; r++ {
		for i := 0; i < len(own); i++ {
			e := own[rng.Intn(len(own))]
			switch rng.Intn(4) {
			case 0:
				err = c.Send("CORE.INSERT", e.U, e.V)
			case 1:
				err = c.Send("CORE.REMOVE", e.U, e.V)
			case 2:
				err = c.Send("CORE.GET", rng.Int31n(1500))
			default:
				g := growth[rng.Intn(len(growth))]
				if rng.Intn(2) == 0 {
					err = c.Send("CORE.INSERT", g.U, g.V)
				} else {
					err = c.Send("CORE.REMOVE", g.U, g.V)
				}
			}
			if err != nil {
				return fmt.Errorf("client %d: send: %w", cli, err)
			}
			if inflight++; inflight >= depth {
				if err := settle(); err != nil {
					return fmt.Errorf("client %d: settle: %w", cli, err)
				}
			}
		}
	}

	// Final phase: converge to the deterministic state.
	for _, e := range own {
		if err := c.Send("CORE.INSERT", e.U, e.V); err != nil {
			return fmt.Errorf("client %d: final insert: %w", cli, err)
		}
		inflight++
	}
	for _, g := range growth {
		if err := c.Send("CORE.REMOVE", g.U, g.V); err != nil {
			return fmt.Errorf("client %d: final remove: %w", cli, err)
		}
		inflight++
	}
	if err := settle(); err != nil {
		return fmt.Errorf("client %d: final settle: %w", cli, err)
	}
	return nil
}

// sweepCores reads every core number over the wire, CORE.MGET page by
// page, plus a CORE.GET spot sweep of the first page to exercise both
// read commands.
func sweepCores(t *testing.T, c *client.Conn, n int) []int32 {
	t.Helper()
	out := make([]int32, n)
	const page = 512
	for lo := 0; lo < n; lo += page {
		hi := min(lo+page, n)
		args := make([]any, 0, hi-lo)
		for v := lo; v < hi; v++ {
			args = append(args, v)
		}
		ks, err := client.Ints(c.Do("CORE.MGET", args...))
		if err != nil {
			t.Fatalf("CORE.MGET sweep at %d: %v", lo, err)
		}
		for i, k := range ks {
			out[lo+i] = int32(k)
		}
	}
	for v := 0; v < min(n, page); v++ {
		k, err := client.Int(c.Do("CORE.GET", v))
		if err != nil {
			t.Fatalf("CORE.GET sweep at %d: %v", v, err)
		}
		if int32(k) != out[v] {
			t.Fatalf("CORE.GET[%d] = %d disagrees with CORE.MGET %d", v, k, out[v])
		}
	}
	return out
}

// TestConcurrentReadersDuringWrites races pure readers against a write
// storm — the networked sibling of the in-process serve race tests;
// mainly interesting under -race.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(2000, 8000, 9), kcore.WithWorkers(2))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	stop := make(chan struct{})
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				switch i % 3 {
				case 0:
					_, err = client.Int(c.Do("CORE.GET", rng.Int31n(2000)))
				case 1:
					_, err = client.Int(c.Do("CORE.MAXCORE"))
				default:
					_, err = client.Ints(c.Do("CORE.HIST"))
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	wc, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial writer: %v", err)
	}
	defer wc.Close()
	pool := gen.SampleNonEdges(m.Graph(), 512, 77)
	for round := 0; round < 20; round++ {
		for _, e := range pool[:64] {
			wc.Send("CORE.INSERT", e.U, e.V)
		}
		wc.Flush()
		for range pool[:64] {
			if _, err := wc.Receive(); err != nil {
				t.Fatalf("writer receive: %v", err)
			}
		}
		for _, e := range pool[:64] {
			wc.Send("CORE.REMOVE", e.U, e.V)
		}
		wc.Flush()
		for range pool[:64] {
			if _, err := wc.Receive(); err != nil {
				t.Fatalf("writer receive: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s, err := client.String(wc.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK = %q, %v", s, err)
	}
}
