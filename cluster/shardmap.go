package cluster

import (
	"fmt"
	"sort"
)

// Shard is one member of a ShardMap: the contiguous global-id range it
// owns and the address of the leader serving it.
type Shard struct {
	Lo, Hi int32  // owned global-id range [Lo, Hi)
	Leader string // leader address (every read and write)
}

// Width returns the number of ids the shard owns.
func (s Shard) Width() int32 { return s.Hi - s.Lo }

// ShardMap is the static routing table: contiguous ranges covering
// [0, Cap) in order, one per shard. It is immutable after construction
// and safe for concurrent use.
//
// Local-id layout of shard i (W = Hi−Lo):
//
//	[0, W)        owned band: global g ∈ [Lo, Hi) lives at g−Lo
//	[W, W+Lo)     low mirror band: remote g < Lo mirrors to W+g
//	[Hi, Cap)     high mirror band: remote g ≥ Hi mirrors to g (identity)
//
// The two mirror images are disjoint from each other and from the owned
// band because W+Lo = Hi, and every local id stays below Cap — so a
// shard never needs a vertex universe larger than the cluster's. The
// mapping is injective and needs no state: every router, and the
// Oracle, computes the same local id for the same remote endpoint,
// which is what lets a remove find the mirror its insert created.
type ShardMap struct {
	shards []Shard
	cap    int32
}

// NewShardMap validates and freezes a shard list: at least one shard,
// ranges contiguous from 0 (shard 0 starts at 0, each Lo equals the
// previous Hi), every range non-empty, every leader address non-empty.
func NewShardMap(shards []Shard) (*ShardMap, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: shard map needs at least one shard")
	}
	want := int32(0)
	for i, s := range shards {
		if s.Lo != want {
			return nil, fmt.Errorf("cluster: shard %d range starts at %d, want %d (ranges must be contiguous from 0)", i, s.Lo, want)
		}
		if s.Hi <= s.Lo {
			return nil, fmt.Errorf("cluster: shard %d has empty range [%d, %d)", i, s.Lo, s.Hi)
		}
		if s.Leader == "" {
			return nil, fmt.Errorf("cluster: shard %d has no leader address", i)
		}
		want = s.Hi
	}
	return &ShardMap{shards: append([]Shard(nil), shards...), cap: want}, nil
}

// EqualRanges builds a ShardMap splitting [0, capacity) into
// len(addrs) near-equal contiguous ranges (the first capacity mod n
// shards get one extra id). addrs[i] is shard i's address group, which
// must hold the shard leader's address alone.
func EqualRanges(capacity int32, addrs [][]string) (*ShardMap, error) {
	n := int32(len(addrs))
	if n == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	if capacity < n {
		return nil, fmt.Errorf("cluster: capacity %d below shard count %d", capacity, n)
	}
	for i, group := range addrs {
		if len(group) != 1 {
			return nil, fmt.Errorf("cluster: shard %d has %d addresses, want its leader alone", i, len(group))
		}
	}
	shards := make([]Shard, n)
	w, extra := capacity/n, capacity%n
	lo := int32(0)
	for i := range shards {
		hi := lo + w
		if int32(i) < extra {
			hi++
		}
		shards[i] = Shard{Lo: lo, Hi: hi, Leader: addrs[i][0]}
		lo = hi
	}
	return NewShardMap(shards)
}

// NumShards returns the number of shards.
func (m *ShardMap) NumShards() int { return len(m.shards) }

// Cap returns the total id capacity (the Hi of the last shard).
func (m *ShardMap) Cap() int32 { return m.cap }

// Shard returns shard i.
func (m *ShardMap) Shard(i int) Shard { return m.shards[i] }

// Owner returns the shard owning global id g. g must be in [0, Cap).
func (m *ShardMap) Owner(g int32) int {
	// Binary search over range starts; ranges are contiguous so the
	// predecessor of g+1 owns g.
	return sort.Search(len(m.shards), func(i int) bool { return m.shards[i].Hi > g })
}

// InRange reports whether g is routable (within [0, Cap)).
func (m *ShardMap) InRange(g int32) bool { return g >= 0 && g < m.cap }

// Local translates global id g, owned by shard i, to its local id.
func (m *ShardMap) Local(i int, g int32) int32 { return g - m.shards[i].Lo }

// Global translates shard i's owned local id back to its global id.
func (m *ShardMap) Global(i int, local int32) int32 { return local + m.shards[i].Lo }

// MirrorLocal translates a remote global id g (not owned by shard i) to
// the local id it mirrors to on shard i.
func (m *ShardMap) MirrorLocal(i int, g int32) int32 {
	s := m.shards[i]
	if g < s.Lo {
		return (s.Hi - s.Lo) + g
	}
	return g // g ≥ Hi: identity band
}

// LocalFor translates any routable global id to shard i's local id:
// owned ids through Local, remote ids through MirrorLocal.
func (m *ShardMap) LocalFor(i int, g int32) int32 {
	s := m.shards[i]
	if g >= s.Lo && g < s.Hi {
		return g - s.Lo
	}
	return m.MirrorLocal(i, g)
}

// MirrorOrigin inverts MirrorLocal: for a local id on shard i, it
// returns the remote global id it mirrors, or (0, false) if the local
// id is in the owned band (not a mirror).
func (m *ShardMap) MirrorOrigin(i int, local int32) (int32, bool) {
	s := m.shards[i]
	w := s.Hi - s.Lo
	switch {
	case local < w:
		return 0, false
	case local < s.Hi: // [W, W+Lo): low mirror band
		return local - w, true
	default: // [Hi, Cap): identity band
		return local, true
	}
}

// IsMirror reports whether shard i's local id is a boundary mirror.
func (m *ShardMap) IsMirror(i int, local int32) bool {
	return local >= m.shards[i].Hi-m.shards[i].Lo
}
