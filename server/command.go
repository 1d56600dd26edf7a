package server

import (
	"bytes"
	"slices"

	"repro/graph"
	"repro/kcore"
)

// command is one row of the dispatch table.
type command struct {
	name    string
	minArgs int // including the command name
	maxArgs int // -1 = unbounded
	// blocking commands (CORE.SYNC, CORE.WAIT) may park their connection's
	// goroutine indefinitely; register exempts them from timing.
	blocking bool
	// denyOnReplica commands mutate the graph; a replica rejects them
	// with READONLY — its only writer is the leader's op stream.
	denyOnReplica bool
	// family buckets the command for metrics (per-family counters and
	// latency histograms; see metrics.go).
	family cmdFamily
	// timed commands are individually clocked in dispatch (aggregate and
	// admin families — heavy and rare); reads and writes are observed at
	// burst granularity instead, keeping the hot path to one clock read
	// per pipelined burst. Computed by register.
	timed bool
	// noSlowlog exempts a command from slowlog recording; CORE.SLOWLOG
	// sets it so inspecting the ring never mutates it (LEN after RESET
	// must read 0, even at threshold 0).
	noSlowlog bool
	fn        func(c *conn, args [][]byte) (quit bool)
}

// commands maps the upper-cased wire name to its handler. The table is
// the single source of truth for the protocol surface; README's command
// table and the client helpers mirror it.
var commands = map[string]*command{}

func register(cmd *command) {
	// Individual timing covers the heavy, rare families; the read and
	// write families are observed at burst granularity (conn.flushObs,
	// conn.drainPending) to keep the hot path free of per-command clock
	// reads. Blocking commands park indefinitely — their wall time is
	// wait, not work, so they are never timed.
	cmd.timed = (cmd.family == famAggregate || cmd.family == famAdmin) && !cmd.blocking
	commands[cmd.name] = cmd
}

func init() {
	register(&command{name: "PING", minArgs: 1, maxArgs: 2, family: famRead, fn: cmdPing})
	register(&command{name: "QUIT", minArgs: 1, maxArgs: 1, family: famRead, fn: cmdQuit})
	register(&command{name: "CORE.GET", minArgs: 2, maxArgs: 2, family: famRead, fn: cmdGet})
	register(&command{name: "CORE.MGET", minArgs: 2, maxArgs: -1, family: famRead, fn: cmdMGet})
	register(&command{name: "CORE.INSERT", minArgs: 3, maxArgs: -1, family: famWrite, denyOnReplica: true, fn: cmdInsert})
	register(&command{name: "CORE.REMOVE", minArgs: 3, maxArgs: -1, family: famWrite, denyOnReplica: true, fn: cmdRemove})
	register(&command{name: "CORE.MAXCORE", minArgs: 1, maxArgs: 1, family: famRead, fn: cmdMaxCore})
	register(&command{name: "CORE.HIST", minArgs: 1, maxArgs: 3, family: famAggregate, fn: cmdHist})
	register(&command{name: "CORE.KVERT", minArgs: 2, maxArgs: 2, family: famAggregate, fn: cmdKVert})
	register(&command{name: "CORE.GROW", minArgs: 2, maxArgs: 2, family: famAdmin, denyOnReplica: true, fn: cmdGrow})
	register(&command{name: "CORE.FLUSH", minArgs: 1, maxArgs: 1, family: famAdmin, fn: cmdFlush})
	register(&command{name: "CORE.EPOCH", minArgs: 1, maxArgs: 1, family: famRead, fn: cmdEpoch})
	register(&command{name: "CORE.N", minArgs: 1, maxArgs: 1, family: famRead, fn: cmdN})
	register(&command{name: "CORE.CHECK", minArgs: 1, maxArgs: 1, family: famAdmin, fn: cmdCheck})
	register(&command{name: "CORE.STATS", minArgs: 1, maxArgs: 1, family: famAdmin, fn: cmdStats})
	register(&command{name: "CORE.BGSAVE", minArgs: 1, maxArgs: 1, family: famAdmin, fn: cmdBGSave})
	register(&command{name: "CORE.LASTSAVE", minArgs: 1, maxArgs: 1, family: famAdmin, fn: cmdLastSave})
	register(&command{name: "CORE.SLOWLOG", minArgs: 2, maxArgs: 3, family: famAdmin, noSlowlog: true, fn: cmdSlowlog})
	register(&command{name: "CORE.SYNC", minArgs: 1, maxArgs: 1, family: famAdmin, blocking: true, fn: cmdSync})
	register(&command{name: "CORE.WAIT", minArgs: 2, maxArgs: 3, family: famAdmin, blocking: true, fn: cmdWait})
}

func cmdPing(c *conn, args [][]byte) bool {
	if len(args) == 2 {
		c.wr.WriteBulk(args[1])
	} else {
		c.wr.WritePong()
	}
	return false
}

func cmdQuit(c *conn, args [][]byte) bool {
	c.wr.WriteOK()
	return true
}

// cmdGet serves CORE.GET v — the core number of v in the latest
// published snapshot. Ids at or beyond the snapshot's N are unseen
// vertices: isolated by definition, core 0.
func cmdGet(c *conn, args [][]byte) bool {
	v, ok := c.argVertex(args[1])
	if !ok {
		return false
	}
	s := c.snapshot()
	var core int32
	if int(v) < s.N() {
		core = s.CoreOf(v)
	}
	c.wr.WriteInt(int64(core))
	return false
}

// cmdMGet serves CORE.MGET v…: one integer per id, all read off one
// snapshot, so the reply is mutually consistent.
func cmdMGet(c *conn, args [][]byte) bool {
	s := c.snapshot()
	n := int32(s.N())
	// Validate (and parse once) before writing: an array reply cannot
	// carry a trailing error without desynchronizing the stream. The id
	// buffer is per-conn scratch, recycled across commands.
	ids := c.ids[:0]
	for _, a := range args[1:] {
		v, ok := parseVertex(a)
		if !ok {
			c.writeErrArg("invalid vertex id", a)
			return false
		}
		ids = append(ids, v)
	}
	c.ids = ids
	c.wr.WriteArrayHeader(len(ids))
	for _, v := range ids {
		var core int32
		if v < n {
			core = s.CoreOf(v)
		}
		c.wr.WriteInt(int64(core))
	}
	return false
}

// cmdInsert serves CORE.INSERT u v [u v …]: the edge list fans into the
// maintainer's coalescing pipeline asynchronously; the deferred reply is
// the applied-edge count of the coalesced batch that covered it.
func cmdInsert(c *conn, args [][]byte) bool {
	if w := c.argEdges(args); w != nil {
		c.srv.m.Submit(w.pd, nil, w.edges)
	}
	return false
}

// cmdRemove serves CORE.REMOVE u v [u v …], the removal twin of
// CORE.INSERT.
func cmdRemove(c *conn, args [][]byte) bool {
	if w := c.argEdges(args); w != nil {
		c.srv.m.Submit(w.pd, w.edges, nil)
	}
	return false
}

func cmdMaxCore(c *conn, args [][]byte) bool {
	c.wr.WriteInt(int64(c.srv.m.MaxCore()))
	return false
}

// cmdHist serves CORE.HIST [lo hi]: Hist[k] vertices with core number k,
// one integer per core value 0..MaxCore. Without arguments it is the
// whole-graph histogram, an O(MaxCore) snapshot read; with an id range
// [lo, hi) (clamped to the universe) it is an O(hi-lo) scan restricted
// to that range — the form a cluster router uses to aggregate a shard's
// owned id band without counting its mirror band.
func cmdHist(c *conn, args [][]byte) bool {
	var hist []int64
	switch len(args) {
	case 1:
		hist = c.snapshot().Histogram()
	case 3:
		lo, ok := c.argVertex(args[1])
		if !ok {
			return false
		}
		hi, ok := c.argVertex(args[2])
		if !ok {
			return false
		}
		c.hist = c.snapshot().HistogramRangeInto(c.hist, lo, hi)
		hist = c.hist
	default:
		c.writeError("ERR CORE.HIST takes no arguments or an id range: CORE.HIST [lo hi]")
		return false
	}
	c.wr.WriteArrayHeader(len(hist))
	for _, n := range hist {
		c.wr.WriteInt(n)
	}
	return false
}

// cmdKVert serves CORE.KVERT k: how many vertices are in the k-core
// (core number >= k), summed off the snapshot histogram in O(MaxCore).
func cmdKVert(c *conn, args [][]byte) bool {
	k, ok := parseInt(args[1])
	if !ok {
		c.writeErrArg("invalid core value", args[1])
		return false
	}
	hist := c.snapshot().Histogram()
	var count int64
	for cv := max(k, 0); cv < int64(len(hist)); cv++ {
		count += hist[cv]
	}
	c.wr.WriteInt(count)
	return false
}

// cmdGrow serves CORE.GROW k: pre-allocate k fresh isolated vertices
// (clamped to the maintainer's ceiling); replies with the new N.
func cmdGrow(c *conn, args [][]byte) bool {
	k, ok := parseInt(args[1])
	if !ok || k < 0 || k > int64(graph.MaxVertexID) {
		c.writeErrArg("invalid vertex count", args[1])
		return false
	}
	c.wr.WriteInt(int64(c.srv.m.AddVertices(int(k))))
	return false
}

func cmdFlush(c *conn, args [][]byte) bool {
	c.wr.WriteInt(int64(c.srv.m.Flush()))
	return false
}

func cmdEpoch(c *conn, args [][]byte) bool {
	c.wr.WriteInt(int64(c.srv.m.Epoch()))
	return false
}

func cmdN(c *conn, args [][]byte) bool {
	c.wr.WriteInt(int64(c.srv.m.N()))
	return false
}

// cmdCheck serves CORE.CHECK: verify every maintainer invariant against
// a fresh decomposition (O(n+m), for tests and operators — the network
// face of Maintainer.Check).
func cmdCheck(c *conn, args [][]byte) bool {
	if err := c.srv.m.Check(); err != nil {
		c.writeError("ERR check failed: " + err.Error())
		return false
	}
	c.wr.WriteOK()
	return false
}

// cmdSlowlog serves CORE.SLOWLOG GET [n] | RESET | LEN over the server's
// slow-command ring (Redis's SLOWLOG shape): GET replies newest-first
// with [id, unix, duration_us, cmd, detail] per entry (default 10, n<=0
// for all), RESET clears the ring, LEN reports its current size.
func cmdSlowlog(c *conn, args [][]byte) bool {
	m := c.srv.metrics
	switch string(asciiUpper(args[1])) {
	case "GET":
		limit := int64(10)
		if len(args) == 3 {
			n, ok := parseInt(args[2])
			if !ok {
				c.writeErrArg("invalid entry count", args[2])
				return false
			}
			limit = n
		}
		entries := m.slow.Snapshot(int(limit))
		c.wr.WriteArrayHeader(len(entries))
		for _, e := range entries {
			c.wr.WriteArrayHeader(5)
			c.wr.WriteInt(e.ID)
			c.wr.WriteInt(e.Unix)
			c.wr.WriteInt(e.Dur.Microseconds())
			c.wr.WriteBulkString(e.Cmd)
			c.wr.WriteBulkString(e.Detail)
		}
	case "RESET":
		m.slow.Reset()
		c.wr.WriteOK()
	case "LEN":
		c.wr.WriteInt(int64(m.slow.Len()))
	default:
		c.writeErrArg("unknown CORE.SLOWLOG subcommand", args[1])
	}
	return false
}

// cmdStats serves CORE.STATS: one bulk string holding the server's whole
// metric registry in the Prometheus text format /metrics serves (a bulk
// string, like Redis's INFO), so one round trip captures the stack's
// health and obs.ParseText reads it back.
func cmdStats(c *conn, args [][]byte) bool {
	var b bytes.Buffer
	c.srv.registry().WritePrometheus(&b)
	c.wr.WriteBulk(b.Bytes())
	return false
}

// cmdBGSave serves CORE.BGSAVE: request an asynchronous checkpoint from
// the attached durability manager (Redis's BGSAVE, minus the fork). A
// checkpoint already in flight absorbs the request.
func cmdBGSave(c *conn, args [][]byte) bool {
	p := c.srv.persist
	if p == nil {
		c.writeError("ERR persistence not configured (start kcored with -dir)")
		return false
	}
	if err := p.BGSave(); err != nil {
		c.writeError("ERR " + err.Error())
		return false
	}
	c.wr.WriteSimple("Background saving started")
	return false
}

// cmdLastSave serves CORE.LASTSAVE: the unix time of the last completed
// checkpoint (0 before the first), Redis's LASTSAVE.
func cmdLastSave(c *conn, args [][]byte) bool {
	p := c.srv.persist
	if p == nil {
		c.writeError("ERR persistence not configured (start kcored with -dir)")
		return false
	}
	ls := p.LastSave()
	if ls.IsZero() {
		c.wr.WriteInt(0)
		return false
	}
	c.wr.WriteInt(ls.Unix())
	return false
}

// --- argument parsing -------------------------------------------------------

// argVertex parses one vertex-id argument, replying on failure.
func (c *conn) argVertex(a []byte) (int32, bool) {
	v, ok := parseVertex(a)
	if !ok {
		c.writeErrArg("invalid vertex id", a)
	}
	return v, ok
}

// argEdges parses the "u v [u v …]" tail of a write command into the
// connection's next free write slot and commits the slot, returning it
// for the command to submit; a malformed command gets its error reply,
// commits nothing and returns nil. The ids only need to be non-negative
// int32s here — the maintainer's universe scan handles growth and its
// ceiling.
func (c *conn) argEdges(args [][]byte) *owed {
	tail := args[1:]
	if len(tail)%2 != 0 {
		c.writeErrParts("", args[0], " takes vertex pairs (odd id count)")
		return nil
	}
	n := len(c.pending)
	c.pending = slices.Grow(c.pending, 1)
	w := &c.pending[:n+1][n]
	if w.pd == nil {
		w.pd = new(kcore.Pending)
	}
	w.edges = slices.Grow(w.edges[:0], len(tail)/2)
	for i := 0; i < len(tail); i += 2 {
		u, ok := c.argVertex(tail[i])
		if !ok {
			return nil
		}
		v, ok := c.argVertex(tail[i+1])
		if !ok {
			return nil
		}
		w.edges = append(w.edges, graph.Edge{U: u, V: v})
	}
	c.pending = c.pending[:n+1]
	c.srv.metrics.inflightWrites.Add(1)
	return w
}

// parseVertex parses a non-negative int32 vertex id.
func parseVertex(a []byte) (int32, bool) {
	n, ok := parseInt(a)
	if !ok || n < 0 || n > int64(1<<31-1) {
		return 0, false
	}
	return int32(n), true
}

// parseInt parses a decimal int64 from a command argument without
// allocating.
func parseInt(a []byte) (int64, bool) {
	if len(a) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if a[0] == '-' {
		neg = true
		i++
		if i == len(a) {
			return 0, false
		}
	}
	var n int64
	for ; i < len(a); i++ {
		d := a[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		if n > (1<<62)/10 {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// appendClipped appends an untrusted argument echoed into an error
// message, bounded and with non-printable bytes neutralized —
// resp.WriteErrorBytes additionally strips CR/LF, but the message should
// stay readable in logs and redis-cli whatever bytes arrived. Appending
// into the connection's error scratch keeps the error path free of
// per-error allocations.
func appendClipped(dst []byte, a []byte) []byte {
	const maxEcho = 32
	b := a
	trunc := false
	if len(b) > maxEcho {
		b, trunc = b[:maxEcho], true
	}
	for _, c := range b {
		if c < 0x20 || c == 0x7f {
			c = '?'
		}
		dst = append(dst, c)
	}
	if trunc {
		dst = append(dst, "…"...)
	}
	return dst
}
