package cluster

import (
	"sync"
	"sync/atomic"
)

// routeScratch is one call's working memory, recycled through the
// Cluster's pool so that a routed call in steady state allocates nothing
// but its result: the per-shard buffers the call fills and ships, and the
// state its scatter legs share. A call holds its scratch until every
// shard's replies are read, because its legs read the buffers until then.
type routeScratch struct {
	c *Cluster

	// bufs[i] is shard i's share of the call: a write's flattened local
	// pairs, or an MGet's local ids, whose positions in the caller's ids
	// are pos[i].
	bufs    [][]int32
	pos     [][]int
	touched []int   // the shards whose share is not empty
	cmd     string  // a write's command
	out     []int32 // an MGet's result

	// doScatter's state: the legs it spawns run fn on shards[k], claiming
	// k from next, and leave their failure in errs[k].
	fn     func(shard int) error
	shards []int
	errs   []error
	next   atomic.Int32
	wg     sync.WaitGroup

	// The legs bound to this scratch once, so that starting one allocates
	// nothing.
	goLeg             func()
	writeLeg, mgetLeg func(shard int) error
}

func newRouteScratch(c *Cluster) *routeScratch {
	s := &routeScratch{
		c:    c,
		bufs: make([][]int32, c.m.NumShards()),
		pos:  make([][]int, c.m.NumShards()),
	}
	s.goLeg, s.writeLeg, s.mgetLeg = s.leg, s.writeShard, s.mgetShard
	return s
}

// scratchKeep is the largest capacity, in entries, at which a per-shard
// buffer goes back to the pool: one CORE.MGET command's ids. What the
// common call needs is then never reallocated, while a bulk load's
// buffers are garbage once it is over.
const scratchKeep = chunkPairs

func (c *Cluster) getScratch() *routeScratch { return c.scratch.Get().(*routeScratch) }

// putScratch empties s, drops what outgrew scratchKeep, and pools it.
func (c *Cluster) putScratch(s *routeScratch) {
	for i := range s.bufs {
		s.bufs[i] = keep(s.bufs[i])
		s.pos[i] = keep(s.pos[i])
	}
	s.touched = s.touched[:0]
	s.cmd, s.out = "", nil
	c.scratch.Put(s)
}

// keep returns buf emptied for reuse, or nil if it has outgrown scratchKeep.
func keep[T any](buf []T) []T {
	if cap(buf) > scratchKeep {
		return nil
	}
	return buf[:0]
}

// touchedShards lists, in s.touched, the shards whose share is not empty.
func (s *routeScratch) touchedShards() []int {
	for i, b := range s.bufs {
		if len(b) > 0 {
			s.touched = append(s.touched, i)
		}
	}
	return s.touched
}
