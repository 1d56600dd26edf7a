package cluster

// ChunkPairs exports chunkPairs to the external test package.
const ChunkPairs = chunkPairs

// DisableHealthPings turns off the leader pools' test-on-borrow PING, so
// a test that counts a shard's commands sees only those an operation
// sends. Call it before the router's first operation.
func (c *Cluster) DisableHealthPings() {
	for _, p := range c.pools {
		p.PingAfter = -1
	}
}
