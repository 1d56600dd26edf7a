package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/client"
)

// ShardError marks a cluster operation that failed on one shard. Ops
// touching only other shards' ranges are unaffected — an outage takes
// down its id range, not the cluster — so callers can route around it
// or surface which band is dark.
type ShardError struct {
	Shard int    // shard index in the ShardMap
	Addr  string // endpoint the failing op used
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// scatter runs fn(i) concurrently for every shard index in shards and
// joins the failures, each wrapped as a ShardError carrying the shard's
// leader address. One slow or dead shard never blocks the others from
// making progress; the caller sees every failure, not just the first.
// Each scatter is one observation of the fan-out latency (the slowest
// shard bounds it), and each per-shard leg counts against its shard's
// request/error counters.
func (c *Cluster) scatter(shards []int, fn func(shard int) error) error {
	start := time.Now()
	err := c.doScatter(shards, fn)
	c.obs.fanout.ObserveDuration(time.Since(start))
	return err
}

func (c *Cluster) doScatter(shards []int, fn func(shard int) error) error {
	if len(shards) == 1 {
		// The common single-shard case (routed op, or a one-shard map)
		// skips the goroutine round trip entirely.
		return c.runShard(shards[0], fn)
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = c.runShard(i, fn)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runShard runs one scatter leg against shard i, counting the request
// and any failure on the shard's counters.
func (c *Cluster) runShard(i int, fn func(shard int) error) error {
	c.obs.reqs[i].Inc()
	err := c.wrapShardErr(i, fn(i))
	if err != nil {
		c.obs.errs[i].Inc()
	}
	return err
}

// allShards returns [0, 1, …, NumShards−1] (cached; read-only).
func (c *Cluster) allShards() []int { return c.every }

func (c *Cluster) wrapShardErr(shard int, err error) error {
	if err == nil {
		return nil
	}
	var se *ShardError
	if errors.As(err, &se) {
		return err
	}
	return &ShardError{Shard: shard, Addr: c.m.Shard(shard).Leader, Err: err}
}

// withLeader borrows a pooled leader connection to shard i, runs fn,
// and returns the connection to the pool.
func (c *Cluster) withLeader(i int, fn func(conn *client.Conn) error) error {
	conn, err := c.pools[i].Get()
	if err != nil {
		return err
	}
	defer c.pools[i].Put(conn)
	return fn(conn)
}
