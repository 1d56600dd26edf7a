// Package cluster scales the kcored serving stack past one process by
// id-range sharding: N independent kcored shards each own a contiguous
// band of the global vertex-id space, a client-side router sends every
// write to the shard(s) that own its endpoints, and global reads run as
// parallel scatter-gather with deterministic merges. There is no
// coordinator process — the topology is static configuration, the
// router is a library, and each shard is a stock kcored leader that
// serves every routed read and write.
//
// # Sharding model
//
// A ShardMap splits the global id space [0, Cap) into contiguous ranges
// [Lo_i, Hi_i); shard i stores its owned vertices at local ids
// [0, Hi_i−Lo_i) (global g ↦ g−Lo_i). A cross-shard edge (u, v) is
// applied on both owning shards, with the remote endpoint mirrored into
// a reserved local band by a deterministic, stateless mapping (see
// ShardMap.MirrorLocal) — so any router instance, with no shared state,
// routes the insert and the matching remove to the same local ids.
//
// # Core-number semantics
//
// Each shard maintains core numbers over its local graph: its owned
// band plus the mirrored boundary of cross-shard edges. Mirroring a
// one-hop boundary cannot reproduce exact global core numbers — a
// triangle split across two shards degrades to a path on each, and no
// finite-hop extension closes the gap (a long cycle defeats any fixed
// horizon). Cluster reads therefore serve *per-shard-local* core
// numbers: a lower bound on the global core number, exact whenever no
// cross-shard edge touches the vertex's component (and in particular
// exact for a router configured so related vertices land on one shard).
// The Oracle type is the executable specification of these semantics;
// the conformance suite holds every served value byte-equal to it.
package cluster
