package server

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/snapshot"
	"repro/kcore"
	"repro/resp"
)

// appendRESPCommand serializes one multibulk command the way a client
// sends it.
func appendRESPCommand(buf []byte, args ...string) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(args)), 10)
	buf = append(buf, '\r', '\n')
	for _, a := range args {
		buf = append(buf, '$')
		buf = strconv.AppendInt(buf, int64(len(a)), 10)
		buf = append(buf, '\r', '\n')
		buf = append(buf, a...)
		buf = append(buf, '\r', '\n')
	}
	return buf
}

// runBurst is conn.serve's loop body with the socket read replaced by a
// copy of a pre-serialized burst into the query buffer: parse and
// dispatch every command, settle the burst, flush.
func runBurst(b testing.TB, c *conn, burst []byte) {
	c.in = append(c.in[:0], burst...)
	if closed := c.parseAndDispatch(); closed || len(c.in) != 0 {
		b.Fatalf("burst not consumed: closed=%v, %d bytes left", closed, len(c.in))
	}
	c.endCycle()
	if err := c.wr.Flush(); err != nil {
		b.Fatalf("flush: %v", err)
	}
}

// BenchmarkHotPathAllocs asserts the zero-allocation contract of the
// server-side command path, metrics included: a pipelined burst of read
// commands — parse, dispatch, snapshot read, reply — allocates NOTHING
// once the connection's scratch is warm, and a pipelined burst of writes
// allocates nothing per command: only the engine's per-batch publication.
// It drives the parseAndDispatch→endCycle→flush sequence every connection
// runs, against a pre-serialized burst, so the measurement covers exactly
// the per-command server work (no sockets, no client). CI runs it with
// -benchtime=1x as a regression tripwire.
func BenchmarkHotPathAllocs(b *testing.B) {
	const n = 10_000
	maint := kcore.New(gen.ErdosRenyi(n, 40_000, 1), kcore.WithWorkers(1))
	defer maint.Close()
	srv := New(maint)
	c := &conn{srv: srv, wr: resp.NewWriterSize(io.Discard, 16<<10)}

	const depth = 64
	rng := rand.New(rand.NewSource(5))
	var getBurst, pingBurst []byte
	for i := 0; i < depth; i++ {
		v := strconv.Itoa(int(rng.Int31n(n)))
		getBurst = appendRESPCommand(getBurst, "CORE.GET", v)
		pingBurst = appendRESPCommand(pingBurst, "PING")
	}

	for _, tc := range []struct {
		name  string
		burst []byte
	}{
		{"pipelinedGet", getBurst},
		{"ping", pingBurst},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runBurst(b, c, tc.burst) // warm scratch: query buffer, writer buffer
			allocs := testing.AllocsPerRun(100, func() { runBurst(b, c, tc.burst) })
			perOp := allocs / depth
			b.ReportMetric(perOp, "allocs/op")
			if perOp != 0 {
				b.Fatalf("hot path allocates: %.2f allocs/op (%.0f per %d-deep burst), want 0",
					perOp, allocs, depth)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBurst(b, c, tc.burst)
			}
		})
	}

	b.Run("pipelinedWrite", func(b *testing.B) {
		// 16 disjoint paths a–b–c on one full snapshot page of vertices (a
		// short last page is never recycled): one burst of single-edge
		// CORE.INSERTs closes each into a triangle, the next burst of
		// CORE.REMOVEs reopens them, so every engine batch moves vertices
		// and publishes a delta.
		const writeDepth = 16
		var base []graph.Edge
		var closeBurst, openBurst []byte
		for i := int32(0); i < writeDepth; i++ {
			a, c := strconv.Itoa(int(3*i)), strconv.Itoa(int(3*i+2))
			base = append(base, graph.Edge{U: 3 * i, V: 3*i + 1}, graph.Edge{U: 3*i + 1, V: 3*i + 2})
			closeBurst = appendRESPCommand(closeBurst, "CORE.INSERT", a, c)
			openBurst = appendRESPCommand(openBurst, "CORE.REMOVE", a, c)
		}
		wm := kcore.New(graph.MustFromEdges(snapshot.PageSize, base), kcore.WithWorkers(1))
		defer wm.Close()
		wc := &conn{srv: New(wm), wr: resp.NewWriterSize(io.Discard, 16<<10)}
		pair := func() {
			runBurst(b, wc, closeBurst)
			runBurst(b, wc, openBurst)
		}
		pair() // warm scratch: write slots, query buffer, writer buffer

		// The applier may wake before a burst is fully queued and split it
		// into two batches; each batch owns its VPlusSizes slice and its
		// published View (the page table, cloned page and histogram
		// are recycled from the batch before), so the bound scales with
		// the batches ServingStats counted.
		const runs = 100
		before := wm.ServingStats()
		perBurst := testing.AllocsPerRun(runs, pair) / 2
		after := wm.ServingStats()
		batches := float64(after.Batches-before.Batches) / (2 * (runs + 1)) // AllocsPerRun warms up once
		if d := after.DeltaPublishes - before.DeltaPublishes; d != after.Batches-before.Batches {
			b.Fatalf("%d delta publications in %d batches: a burst did not move its vertices", d, after.Batches-before.Batches)
		}
		if perBurst > 2*batches {
			b.Fatalf("write path allocates per command: %.2f allocs per %d-deep burst over %.2f engine batches, want at most %.2f",
				perBurst, writeDepth, batches, 2*batches)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pair()
		}
		b.ReportMetric(perBurst, "allocs/burst") // after ResetTimer, which drops reported metrics
		b.ReportMetric(batches, "batches/burst")
	})
}
