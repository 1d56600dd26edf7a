package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/graph"
	"repro/obs"
)

// Cluster is the client-side router over a ShardMap: it owns one
// connection pool per shard leader, routes single-vertex and edge
// operations to the owning shard(s), batches each burst per shard into
// pipelined multi-pair commands, and runs the global aggregates as
// parallel scatter-gather with deterministic merges. It is safe for
// concurrent use.
type Cluster struct {
	m     *ShardMap
	pools []*client.Pool // leader pool per shard
	every []int          // cached [0..NumShards)

	// hwm is the cluster vertex universe's high-water mark — the router's
	// answer to CORE.N. It advances when an insert names a new highest id
	// or Grow extends the universe; removals naming unseen vertices do
	// not grow it (matching the engine's drop semantics). It is
	// router-local state: a fresh router over an existing cluster starts
	// at the value Connect recovers from the shards' owned bands.
	hwm atomic.Int64

	// scratch recycles *routeScratch, one per call in flight.
	scratch sync.Pool

	obs *routerMetrics
}

// dialTimeout bounds every dial to a shard leader.
const dialTimeout = 5 * time.Second

// chunkPairs bounds how many edge pairs (or ids) ride in one multi-pair
// command before the router starts another in the same pipeline — large
// enough to amortize dispatch, small enough to bound per-command buffers on
// both ends.
const chunkPairs = 4096

// Connect builds a router over the map. Connections are dialed lazily
// (first use per shard), so Connect itself does no network I/O; the
// first operation against an unreachable shard surfaces a ShardError.
func Connect(m *ShardMap) *Cluster {
	c := &Cluster{m: m, obs: newRouterMetrics(m.NumShards())}
	c.pools = make([]*client.Pool, m.NumShards())
	c.every = make([]int, m.NumShards())
	for i := range c.pools {
		addr := m.Shard(i).Leader
		c.pools[i] = &client.Pool{
			Dial:    func() (*client.Conn, error) { return client.Dial(addr, client.WithDialTimeout(dialTimeout)) },
			MaxIdle: 8,
		}
		c.every[i] = i
	}
	c.scratch.New = func() any { return newRouteScratch(c) }
	return c
}

// Close closes every shard pool.
func (c *Cluster) Close() error {
	for _, p := range c.pools {
		p.Close()
	}
	return nil
}

// Recover rebuilds the router's universe high-water mark from the
// shards themselves: the highest globally-existing owned id across all
// owned bands. A fresh router over a cluster with prior state calls
// this once (Connect does no I/O); a single long-lived router never
// needs it.
func (c *Cluster) Recover() error {
	tops := make([]int64, c.m.NumShards())
	err := c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			n, err := client.Int(conn.Do("CORE.N"))
			if err != nil {
				return err
			}
			s := c.m.Shard(i)
			owned := min(n, int64(s.width()))
			if owned > 0 {
				tops[i] = int64(s.Lo) + owned
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	for _, t := range tops {
		c.advanceHWM(t)
	}
	return nil
}

func (c *Cluster) advanceHWM(n int64) {
	for {
		cur := c.hwm.Load()
		if n <= cur || c.hwm.CompareAndSwap(cur, n) {
			return
		}
	}
}

// N returns the cluster vertex-universe size (the high-water mark).
func (c *Cluster) N() int64 { return c.hwm.Load() }

// checkEdges validates that every endpoint is routable.
func (c *Cluster) checkEdges(edges []graph.Edge) error {
	for _, e := range edges {
		if !c.m.inRange(e.U) || !c.m.inRange(e.V) {
			return fmt.Errorf("cluster: edge (%d,%d) outside id capacity %d", e.U, e.V, c.m.Cap())
		}
	}
	return nil
}

// routeEdges groups a burst into s's per-shard flattened local-id pair
// buffers: an intra-shard edge lands once on its owner; a cross-shard
// edge lands on both owners, the remote endpoint translated through the
// deterministic mirror mapping so both shards see it — and so the
// matching remove routes to the same local pair with no shared state.
func (c *Cluster) routeEdges(s *routeScratch, edges []graph.Edge) {
	for _, e := range edges {
		a, b := c.m.Owner(e.U), c.m.Owner(e.V)
		s.bufs[a] = append(s.bufs[a], c.m.LocalFor(a, e.U), c.m.LocalFor(a, e.V))
		if b != a {
			s.bufs[b] = append(s.bufs[b], c.m.LocalFor(b, e.U), c.m.LocalFor(b, e.V))
		}
	}
}

// InsertEdges routes one write burst: each edge to its owning shard(s),
// each shard's share as chunked multi-pair CORE.INSERTs in a single
// pipelined flush. Shards are written in parallel. The router no longer
// fills epochs: the variadic parameter is ignored and stays only so that
// callers which still pass nil compile; new callers leave it out.
func (c *Cluster) InsertEdges(edges []graph.Edge, epochs ...[]uint64) error {
	if err := c.checkEdges(edges); err != nil {
		return err
	}
	for _, e := range edges {
		if n := int64(max(e.U, e.V)) + 1; n > c.hwm.Load() {
			c.advanceHWM(n)
		}
	}
	return c.writeRouted("CORE.INSERT", edges)
}

// RemoveEdges routes one removal burst the same way (removals of absent
// edges are dropped by the engine and never grow the universe).
func (c *Cluster) RemoveEdges(edges []graph.Edge, epochs ...[]uint64) error {
	if err := c.checkEdges(edges); err != nil {
		return err
	}
	return c.writeRouted("CORE.REMOVE", edges)
}

// writeRouted routes edges into per-shard pair buffers and ships them,
// one shard per scatter leg.
func (c *Cluster) writeRouted(cmd string, edges []graph.Edge) error {
	s := c.getScratch()
	defer c.putScratch(s)
	c.routeEdges(s, edges)
	touched := s.touchedShards()
	if len(touched) == 0 {
		return nil
	}
	s.cmd = cmd
	return c.scatterWith(s, touched, s.writeLeg)
}

// writeShard ships shard i's share of a write: one pooled connection,
// the pairs as chunked multi-pair commands, one flush, all replies
// received in order.
func (s *routeScratch) writeShard(i int) error {
	buf, cmd := s.bufs[i], s.cmd
	return s.c.withLeader(i, func(conn *client.Conn) error {
		const chunk = 2 * chunkPairs
		sent := 0
		for off := 0; off < len(buf); off += chunk {
			end := min(off+chunk, len(buf))
			if err := conn.SendInt32s(cmd, buf[off:end]); err != nil {
				return err
			}
			sent++
		}
		if err := conn.Flush(); err != nil {
			return err
		}
		for range sent {
			if _, err := conn.Receive(); err != nil {
				return err
			}
		}
		return nil
	})
}

// Grow extends the cluster universe to at least n vertices: each shard
// whose owned band intersects [0, n) is grown to cover its share, and
// the high-water mark advances. Returns the new cluster N.
func (c *Cluster) Grow(n int32) (int64, error) {
	if n < 0 || int64(n) > int64(c.m.Cap()) {
		return 0, fmt.Errorf("cluster: grow %d outside id capacity %d", n, c.m.Cap())
	}
	err := c.scatter(c.allShards(), func(i int) error {
		s := c.m.Shard(i)
		wantLocal := min(max(n-s.Lo, 0), s.width())
		if wantLocal == 0 {
			return nil
		}
		return c.withLeader(i, func(conn *client.Conn) error {
			have, err := client.Int(conn.Do("CORE.N"))
			if err != nil {
				return err
			}
			if delta := int64(wantLocal) - have; delta > 0 {
				if _, err := client.Int(conn.Do("CORE.GROW", delta)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	c.advanceHWM(int64(n))
	return c.N(), nil
}

// MGet returns the core numbers of the given global vertex ids, in
// input order: ids are grouped by owning shard, each shard's share runs
// as chunked CORE.MGETs in one pipelined flush, shards in parallel, and
// the replies are decoded straight into their input positions.
func (c *Cluster) MGet(ids []int32) ([]int32, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	if err := c.groupByOwner(s, ids); err != nil {
		return nil, err
	}
	s.out = make([]int32, len(ids))
	if err := c.scatterWith(s, s.touchedShards(), s.mgetLeg); err != nil {
		return nil, err
	}
	return s.out, nil
}

// groupByOwner splits ids by owning shard into s: bufs[i] holds shard
// i's local ids and pos[i] their indices in ids. An id outside the map's
// capacity is an error.
func (c *Cluster) groupByOwner(s *routeScratch, ids []int32) error {
	for p, g := range ids {
		if !c.m.inRange(g) {
			return fmt.Errorf("cluster: vertex %d outside id capacity %d", g, c.m.Cap())
		}
		i := c.m.Owner(g)
		s.bufs[i] = append(s.bufs[i], c.m.local(i, g))
		s.pos[i] = append(s.pos[i], p)
	}
	return nil
}

// mgetShard runs shard i's CORE.MGET share on one pooled connection —
// chunked, one flush — and writes each core number to its position in
// the result.
func (s *routeScratch) mgetShard(i int) error {
	locals, pos, out := s.bufs[i], s.pos[i], s.out
	return s.c.withLeader(i, func(conn *client.Conn) error {
		sent := 0
		for off := 0; off < len(locals); off += chunkPairs {
			end := min(off+chunkPairs, len(locals))
			if err := conn.SendInt32s("CORE.MGET", locals[off:end]); err != nil {
				return err
			}
			sent++
		}
		if err := conn.Flush(); err != nil {
			return err
		}
		j := 0
		for range sent {
			err := conn.ReceiveInts(func(_ int, k int64) {
				if j < len(pos) {
					out[pos[j]] = int32(k)
				}
				j++
			})
			if err != nil {
				return err
			}
		}
		if j != len(locals) {
			return fmt.Errorf("cluster: CORE.MGET returned %d values for %d ids", j, len(locals))
		}
		return nil
	})
}

// Hist returns the cluster core-number histogram: bin k counts vertices
// with (per-shard-local) core number k across the universe [0, N).
//
// Each shard reports its owned band only (CORE.HIST 0 W — mirrors are
// the owning shard's business), and the reply's sum is the shard's
// owned-vertex count min(N_i, W_i); the bins merge by element-wise sum.
// Bin 0 is then compensated by N − Σ min(N_i, W_i): universe ids that
// exist on no shard (holes under the high-water mark) are isolated by
// construction, and owned-band vertices a shard grew beyond the cluster
// N (mirror-band growth pulling the owned band along) are isolated too
// — both differ from a single-node oracle only in bin 0, by exactly
// that count.
func (c *Cluster) Hist() ([]int64, error) {
	hists := make([][]int64, c.m.NumShards())
	err := c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			var err error
			hists[i], err = client.Ints(conn.Do("CORE.HIST", 0, c.m.Shard(i).width()))
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	merged := []int64{0}
	var sum int64
	for _, h := range hists {
		for k, v := range h {
			for k >= len(merged) {
				merged = append(merged, 0)
			}
			merged[k] += v
			sum += v
		}
	}
	merged[0] += c.N() - sum
	// Trim trailing zero bins a compensated merge can leave (e.g. a
	// shard's owned band shrank to isolated vertices after removals).
	for len(merged) > 1 && merged[len(merged)-1] == 0 {
		merged = merged[:len(merged)-1]
	}
	return merged, nil
}

// MaxCore returns the cluster's maximum core number: the max across
// shards. A shard's CORE.MAXCORE covers its mirrors too, but mirrors
// form an independent set in the shard-local graph, so any k-core
// containing one also contains owned vertices of core ≥ k — a shard's
// max is always attained in its owned band, and max-merge is exact.
func (c *Cluster) MaxCore() (int32, error) {
	vals := make([]int64, c.m.NumShards())
	err := c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			var err error
			vals[i], err = client.Int(conn.Do("CORE.MAXCORE"))
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	var mx int64
	for _, v := range vals {
		mx = max(mx, v)
	}
	return int32(mx), nil
}

// KVert counts vertices with core number ≥ k: for k ≤ 0 every universe
// vertex qualifies (holes are core-0 vertices, so only N answers this
// exactly, with no I/O); for k ≥ 1 it is Hist's suffix sum from bin k.
func (c *Cluster) KVert(k int32) (int64, error) {
	if k <= 0 {
		return c.N(), nil
	}
	hist, err := c.Hist()
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, v := range hist[min(int(k), len(hist)):] {
		sum += v
	}
	return sum, nil
}

// EpochVector is one epoch per shard, indexed by shard.
type EpochVector []uint64

// Flush forces every shard to publish its pending writes and returns
// the per-shard epoch vector of the published state.
func (c *Cluster) Flush() (EpochVector, error) {
	ev := make(EpochVector, c.m.NumShards())
	err := c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			e, err := client.Int(conn.Do("CORE.FLUSH"))
			if err != nil {
				return err
			}
			ev[i] = uint64(e)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// Check runs CORE.CHECK on every shard (full recompute vs served cores)
// and fails with a ShardError if any shard disagrees with itself.
func (c *Cluster) Check() error {
	return c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			s, err := client.String(conn.Do("CORE.CHECK"))
			if err != nil {
				return err
			}
			if s != "OK" {
				return fmt.Errorf("CORE.CHECK: %s", s)
			}
			return nil
		})
	})
}

// ShardStats pairs one shard's server stats with the router's
// client-side pool counters for it.
type ShardStats struct {
	Shard  int
	Addr   string
	Server map[string]float64 // CORE.STATS, series → value (obs.ParseText)
	Pool   client.PoolStats
}

// Stats gathers CORE.STATS from every shard leader plus the per-shard
// pool counters.
func (c *Cluster) Stats() ([]ShardStats, error) {
	out := make([]ShardStats, c.m.NumShards())
	err := c.scatter(c.allShards(), func(i int) error {
		return c.withLeader(i, func(conn *client.Conn) error {
			text, err := client.String(conn.Do("CORE.STATS"))
			if err != nil {
				return err
			}
			m, err := obs.ParseText(strings.NewReader(text))
			if err != nil {
				return err
			}
			out[i] = ShardStats{Shard: i, Addr: c.m.Shard(i).Leader, Server: m, Pool: c.pools[i].Stats()}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
