package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
)

func testLogger(t *testing.T) *log.Logger {
	return log.New(testWriter{t}, "", 0)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// startManaged builds a maintainer over g with a fresh Manager on dir.
func startManaged(t *testing.T, dir string, g *graph.Graph, opts Options) (*kcore.Maintainer, *Manager) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = testLogger(t)
	}
	mgr, err := NewManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(g, kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	return m, mgr
}

func assertRecoverMatches(t *testing.T, dir string, want *graph.Graph) *Result {
	t.Helper()
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil {
		t.Fatal("Recover returned nil graph")
	}
	if res.Graph.N() != want.N() || res.Graph.M() != want.M() {
		t.Fatalf("recovered n=%d m=%d, want n=%d m=%d",
			res.Graph.N(), res.Graph.M(), want.N(), want.M())
	}
	wc, _ := bz.Decompose(want)
	gc, _ := bz.Decompose(res.Graph)
	for v := range wc {
		if gc[v] != wc[v] {
			t.Fatalf("recovered core[%d] = %d, want %d", v, gc[v], wc[v])
		}
	}
	for v := int32(0); int(v) < want.N(); v++ {
		for _, w := range want.Adj(v) {
			if !res.Graph.HasEdge(v, w) {
				t.Fatalf("recovered graph missing edge (%d,%d)", v, w)
			}
		}
	}
	return res
}

// TestRecoverFreshDir: an empty or absent directory recovers to nothing.
func TestRecoverFreshDir(t *testing.T) {
	res, err := Recover(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("fresh dir recovered a graph")
	}
	// A missing dir holds no committed checkpoint: also an empty Result,
	// not an error.
	if res, err := Recover(filepath.Join(t.TempDir(), "missing")); err != nil || res.Graph != nil {
		t.Fatalf("missing dir: %+v, %v; want an empty Result", res, err)
	}
}

// TestCheckpointOnlyRecovery: Start's initial checkpoint alone (no log
// records) recovers the full base graph.
func TestCheckpointOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(500, 2000, 9)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	res := assertRecoverMatches(t, dir, base)
	if res.TailRecords != 0 || res.TornBytes != 0 || res.Segments != 1 {
		t.Fatalf("unexpected tail: %+v", res)
	}
}

// TestLogReplayRecovery drives mixed updates (inserts, removes, growth,
// implicit growth) with fsync=always and verifies checkpoint+tail
// recovery matches the live graph exactly.
func TestLogReplayRecovery(t *testing.T) {
	dir := t.TempDir()
	const n = 400
	base := gen.ErdosRenyi(n, 3*n, 21)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0:
			u := int32(rng.Intn(m.N()))
			if a := m.Graph().Adj(u); len(a) > 0 {
				m.RemoveEdge(u, a[rng.Intn(len(a))])
			}
		case 1:
			m.AddVertices(2)
		case 2:
			m.InsertEdge(int32(rng.Intn(m.N())), int32(m.N()+rng.Intn(3)))
		default:
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				m.InsertEdge(u, v)
			}
		}
	}
	m.Flush()
	live := m.Graph().Clone()
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	res := assertRecoverMatches(t, dir, live)
	if res.TailRecords == 0 {
		t.Fatal("expected log records to replay")
	}
	if res.TornBytes != 0 || res.Truncated {
		t.Fatalf("clean shutdown left a torn tail: %+v", res)
	}
}

// TestThresholdRotation: a low CheckpointOps threshold must rotate
// generations during a burst, delete stale files, and still recover
// exactly.
func TestThresholdRotation(t *testing.T) {
	dir := t.TempDir()
	const n = 200
	base := gen.ErdosRenyi(n, n, 31)
	m, mgr := startManaged(t, dir, base.Clone(), Options{
		Fsync:           FsyncAlways,
		CheckpointOps:   50,
		CheckpointBytes: -1,
	})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 600; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			m.InsertEdge(u, v)
		}
	}
	m.Flush()
	// Force one deterministic rotation so at least two checkpoints exist
	// even if the background worker lagged.
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("expected rotations, got %d checkpoints", st.Checkpoints)
	}
	live := m.Graph().Clone()
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	assertRecoverMatches(t, dir, live)

	// Stale generations must be gone: exactly the current generation's
	// segment and checkpoint remain (ReadDir sorts by name).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	cur := mgr.Stats().Gen
	if want := []string{filepath.Base(segmentPath(dir, cur)), filepath.Base(checkpointPath(dir, cur))}; !slices.Equal(names, want) {
		t.Fatalf("files after the rotations = %v, want %v", names, want)
	}
}

// buildDirWithTail constructs a durability dir whose final record batch
// is known, returning the dir, the expected fully-recovered graph, and
// the segment path.
func buildDirWithTail(t *testing.T) (dir string, full *graph.Graph, seg string) {
	t.Helper()
	dir = t.TempDir()
	base := gen.ErdosRenyi(60, 120, 17)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	for i := int32(0); i < 10; i++ {
		m.InsertEdge(i, i+40)
	}
	m.Flush()
	full = m.Graph().Clone()
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, full, segmentPath(dir, mgr.Stats().Gen)
}

// TestTornTailEveryOffset truncates the AOF at every byte offset inside
// the final record (and beyond, down to mid-header) and asserts recovery
// never fails: it returns the longest valid prefix, reporting the rest
// as TornBytes.
func TestTornTailEveryOffset(t *testing.T) {
	dir, full, seg := buildDirWithTail(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the final record's start by walking the frame chain.
	off := int64(aofHeaderSize)
	lastStart := off
	for off < int64(len(data)) {
		lastStart = off
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		off += recHeaderSize + plen
	}
	if off != int64(len(data)) {
		t.Fatalf("frame walk ended at %d, file is %d", off, len(data))
	}

	// Recovery of the intact file is the baseline.
	baseline := assertRecoverMatches(t, dir, full)
	if baseline.TornBytes != 0 {
		t.Fatalf("intact file reported torn bytes: %+v", baseline)
	}

	for cut := lastStart; cut < int64(len(data)); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut at %d: Recover failed: %v", cut, err)
		}
		if res.Graph == nil {
			t.Fatalf("cut at %d: nil graph", cut)
		}
		if got, want := res.TornBytes, cut-lastStart; got != want {
			t.Fatalf("cut at %d: TornBytes = %d, want %d", cut, got, want)
		}
		if res.Truncated {
			t.Fatalf("cut at %d: final-segment tear flagged Truncated", cut)
		}
		// The prefix before the final record must replay fully.
		if res.TailRecords != baseline.TailRecords-1 {
			t.Fatalf("cut at %d: TailRecords = %d, want %d", cut, res.TailRecords, baseline.TailRecords-1)
		}
	}
	// Restore and confirm full recovery still works.
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	assertRecoverMatches(t, dir, full)
}

// TestTornLogRecoversPublishedEpoch cuts the final segment at every byte
// after its header and asserts each recovery is the edge set of one
// published epoch: the log keeps or drops a batch whole, a mixed batch
// and one that coalesced two ops included, never a state between two
// publications. Every published epoch is reached by some cut.
func TestTornLogRecoversPublishedEpoch(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(60, 150, 41)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	edgeSet := func(g *graph.Graph) string {
		edges := g.Edges()
		slices.SortFunc(edges, func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
		return fmt.Sprint(edges)
	}
	published := map[string]uint64{edgeSet(m.Graph()): m.Epoch()}
	absent := func(u int32) graph.Edge {
		for v := u + 1; ; v++ {
			if !m.Graph().HasEdge(u, v) {
				return graph.Edge{U: u, V: v}
			}
		}
	}
	present := func(i int) graph.Edge { return m.Graph().Edges()[i] }
	publish := func(res kcore.BatchResult, coalesced int) {
		t.Helper()
		if res.Coalesced != coalesced {
			t.Fatalf("batch coalesced %d ops, want %d", res.Coalesced, coalesced)
		}
		published[edgeSet(m.Graph())] = m.Flush()
	}

	// One op that removes and inserts.
	var a, b kcore.Pending
	m.Submit(&a, []graph.Edge{present(0), present(5)}, []graph.Edge{absent(1), absent(2), absent(3)})
	publish(a.Wait(), 1)

	// An insertion and a removal from two ops, coalesced into one batch
	// behind a parked applier.
	entered, gate, held := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		m.AtQuiescence(func(kcore.QuiescentState) { close(entered); <-gate })
	}()
	<-entered
	m.Submit(&a, nil, []graph.Edge{absent(4), absent(5)})
	m.Submit(&b, []graph.Edge{present(7)}, nil)
	close(gate)
	<-held
	b.Wait()
	publish(a.Wait(), 2)

	// A removal beside an insertion that grows the universe.
	m.Submit(&a, []graph.Edge{present(2)}, []graph.Edge{{U: 6, V: 70}})
	publish(a.Wait(), 1)
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(published) != 4 {
		t.Fatalf("%d distinct published edge sets, want 4", len(published))
	}

	seg := segmentPath(dir, mgr.Stats().Gen)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	reached := map[uint64]bool{}
	for cut := aofHeaderSize; cut <= len(data); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut at %d of %d: Recover: %v", cut, len(data), err)
		}
		epoch, ok := published[edgeSet(res.Graph)]
		if !ok {
			t.Fatalf("cut at %d of %d: recovered %d edges after %d records, the edge set of no published epoch",
				cut, len(data), res.Graph.M(), res.TailRecords)
		}
		reached[epoch] = true
	}
	if len(reached) != len(published) {
		t.Fatalf("cuts reached %d of the %d published epochs", len(reached), len(published))
	}
}

// TestCorruptCRCTail flips bits in the final record's payload and CRC:
// recovery drops exactly that record, never errors.
func TestCorruptCRCTail(t *testing.T) {
	dir, full, seg := buildDirWithTail(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(aofHeaderSize)
	lastStart := off
	for off < int64(len(data)) {
		lastStart = off
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		off += recHeaderSize + plen
	}
	baseline := assertRecoverMatches(t, dir, full)

	for _, tc := range []struct {
		name string
		at   int64
	}{
		{"stored CRC", lastStart + 4},
		{"payload kind byte", lastStart + recHeaderSize},
		{"payload last byte", int64(len(data)) - 1},
		{"length prefix huge", lastStart},
	} {
		b := append([]byte(nil), data...)
		if tc.name == "length prefix huge" {
			binary.LittleEndian.PutUint32(b[tc.at:], 0xffffffff)
		} else {
			b[tc.at] ^= 0x5a
		}
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("%s: Recover failed: %v", tc.name, err)
		}
		if res.TailRecords != baseline.TailRecords-1 {
			t.Fatalf("%s: TailRecords = %d, want %d", tc.name, res.TailRecords, baseline.TailRecords-1)
		}
		if res.TornBytes == 0 {
			t.Fatalf("%s: corruption not reported as torn", tc.name)
		}
	}
}

// TestCorruptMiddleRecord: corruption before the tail stops replay at
// the longest valid prefix; with a single segment that is still a
// "torn tail" from the corrupt record on.
func TestCorruptMiddleRecord(t *testing.T) {
	dir, _, seg := buildDirWithTail(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record's payload.
	off := int64(aofHeaderSize)
	plen := int64(binary.LittleEndian.Uint32(data[off:]))
	second := off + recHeaderSize + plen
	if second >= int64(len(data)) {
		t.Skip("need at least two records")
	}
	b := append([]byte(nil), data...)
	b[second+recHeaderSize] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover failed: %v", err)
	}
	if res.TailRecords != 1 {
		t.Fatalf("TailRecords = %d, want 1 (longest valid prefix)", res.TailRecords)
	}
	if res.TornBytes != int64(len(data))-second {
		t.Fatalf("TornBytes = %d, want %d", res.TornBytes, int64(len(data))-second)
	}
}

// TestRecoverStopsAtEpochGap splices the middle one of three mixed
// batches out of the log. Its neighbours still frame and decode, but the
// third record's epoch no longer follows the first's: replaying it would
// build batches 1 and 3 without 2, a state no epoch published. Recovery
// stops after the first batch and reports the loss as Truncated.
func TestRecoverStopsAtEpochGap(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(60, 150, 43)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	var afterFirst *graph.Graph
	for i := int32(0); i < 3; i++ {
		var pd kcore.Pending
		m.Submit(&pd, []graph.Edge{m.Graph().Edges()[i]}, []graph.Edge{{U: i, V: 55 + i}, {U: 10 + i, V: 59}})
		if res := pd.Wait(); res.Applied != 3 {
			t.Fatalf("batch %d applied %d edges, want 3", i, res.Applied)
		}
		if i == 0 {
			afterFirst = m.Graph().Clone()
		}
	}
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, mgr.Stats().Gen)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The frame chain: the header, then one length-prefixed record each.
	var starts []int
	for off := aofHeaderSize; off < len(data); off += recHeaderSize + int(binary.LittleEndian.Uint32(data[off:])) {
		starts = append(starts, off)
	}
	if len(starts) != 3 {
		t.Fatalf("%d records in the log, want 3", len(starts))
	}
	spliced := append(slices.Clip(data[:starts[1]]), data[starts[2]:]...)
	if err := os.WriteFile(seg, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	res := assertRecoverMatches(t, dir, afterFirst)
	if !res.Truncated || res.TailRecords != 1 {
		t.Fatalf("Recover = %+v; want the first batch only, Truncated", res)
	}
}

// TestCrashBetweenRotationAndManifest pins the commit rule: a checkpoint
// is committed by its own rename, and the current generation is the
// largest whose checkpoint exists under its final name. A clean run
// recovers across one segment; each row then hand-builds what a crash at
// one point of a checkpoint leaves on top of a committed generation G
// and its segment, and recovery must return the same graph from the
// generation the rule names.
func TestCrashBetweenRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(80, 160, 23)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	for i := int32(0); i < 8; i++ {
		m.InsertEdge(i, i+60)
	}
	m.Flush()
	if err := mgr.CheckpointNow(); err != nil { // mid-run rotation
		t.Fatal(err)
	}
	for i := int32(0); i < 8; i++ {
		m.InsertEdge(i+10, i+50)
	}
	m.Flush()
	live := m.Graph().Clone()
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	res := assertRecoverMatches(t, dir, live)
	if res.Segments != 1 {
		t.Fatalf("clean recovery crossed %d segments", res.Segments)
	}

	g0 := gen.ErdosRenyi(50, 100, 29)
	atG := g0.Clone() // checkpoint G plus segment G
	atG.AddEdge(1, 2)
	want := atG.Clone() // plus segment G+1
	want.AddEdge(3, 4)
	want.AddEdge(5, 6)
	// commitNext commits checkpoint G+1 through the checkpoint's own
	// write and commit, over the state that closed segment G.
	commitNext := func(t *testing.T, dir string, genG, epoch uint64) {
		f, err := writeCheckpointFile(dir, genG+1, epoch, atG)
		if err != nil {
			t.Fatal(err)
		}
		if err := commitCheckpointFile(f, dir, genG+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		debris   func(t *testing.T, dir string, genG, epoch uint64)
		wantNext bool // recovery starts from G+1, not G
		segments int
	}{
		{"rotated, checkpoint G+1 not yet renamed", func(t *testing.T, dir string, genG, _ uint64) {
			// A newer uncommitted checkpoint names nothing, however
			// garbled.
			if err := os.WriteFile(checkpointPath(dir, genG+1)+".tmp", []byte("torn checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, false, 2},
		{"G+1 committed, stale G not yet removed", commitNext, true, 1},
		{"leftover MANIFEST naming the older G", func(t *testing.T, dir string, genG, epoch uint64) {
			commitNext(t, dir, genG, epoch)
			var b [20]byte // the retired layout: magic, version, gen, CRC
			binary.LittleEndian.PutUint32(b[0:], 0x4b4d4e46)
			binary.LittleEndian.PutUint32(b[4:], formatVersion)
			binary.LittleEndian.PutUint64(b[8:], genG)
			binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(b[:16], crcTable))
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), b[:], 0o644); err != nil {
				t.Fatal(err)
			}
		}, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, mgr := startManaged(t, dir, g0.Clone(), Options{Fsync: FsyncAlways})
			m.InsertEdge(1, 2)
			m.Flush()
			genG, epoch := mgr.Stats().Gen, m.Epoch()
			m.Close()
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			// Segment G+1, opened at the rotation, with two more inserts.
			next := appendSegmentHeader(nil, genG+1)
			next = appendBatchRecord(next, epoch+1, nil, []graph.Edge{{U: 3, V: 4}, {U: 5, V: 6}})
			if err := os.WriteFile(segmentPath(dir, genG+1), next, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.debris(t, dir, genG, epoch)
			res := assertRecoverMatches(t, dir, want)
			wantGen := genG
			if tc.wantNext {
				wantGen++
			}
			if res.Gen != wantGen || res.Segments != tc.segments {
				t.Fatalf("recovered gen %d across %d segments, want gen %d across %d", res.Gen, res.Segments, wantGen, tc.segments)
			}
		})
	}
}

// TestRestartResumesGenerations: recover, restart a Manager on the same
// dir, write more, recover again — generations must keep ascending and
// state must accumulate.
func TestRestartResumesGenerations(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(40, 80, 3)
	m1, mgr1 := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncAlways})
	m1.InsertEdge(0, 30)
	m1.Flush()
	gen1 := mgr1.Stats().Gen
	m1.Close()
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	res1, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, mgr2 := startManaged(t, dir, res1.Graph, Options{Fsync: FsyncAlways})
	if g2 := mgr2.Stats().Gen; g2 <= gen1 {
		t.Fatalf("generation did not advance: %d -> %d", gen1, g2)
	}
	m2.InsertEdge(1, 31)
	m2.Flush()
	live := m2.Graph().Clone()
	m2.Close()
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	if !live.HasEdge(0, 30) || !live.HasEdge(1, 31) {
		t.Fatal("state lost across restart")
	}
	assertRecoverMatches(t, dir, live)
}

// TestStatsAndBGSave exercises the operator surface: Stats counters and
// BGSave-triggered checkpoints.
func TestStatsAndBGSave(t *testing.T) {
	dir := t.TempDir()
	base := gen.ErdosRenyi(30, 60, 41)
	m, mgr := startManaged(t, dir, base.Clone(), Options{Fsync: FsyncEverySec})
	before := mgr.Stats()
	if before.Checkpoints != 1 {
		t.Fatalf("initial checkpoints = %d, want 1", before.Checkpoints)
	}
	m.InsertEdge(2, 25)
	m.Flush()
	if st := mgr.Stats(); st.Records == 0 || st.AppendedBytes == 0 || st.OpsSinceCheckpoint == 0 {
		t.Fatalf("append not reflected in stats: %+v", st)
	}
	if err := mgr.BGSave(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && mgr.Stats().Checkpoints < 2; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if st := mgr.Stats(); st.Checkpoints < 2 {
		t.Fatalf("BGSave never completed: %+v", st)
	} else if st.LastSave.IsZero() {
		t.Fatal("LastSave is zero after checkpoint")
	}
	m.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFsync(t *testing.T) {
	for s, want := range map[string]Fsync{"always": FsyncAlways, "everysec": FsyncEverySec, "no": FsyncNo} {
		got, err := ParseFsync(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Fsync(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("ParseFsync accepted garbage")
	}
}
