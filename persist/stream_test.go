package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/kcore"
)

// drainSession drains sess until it idles — Wait hands out a heartbeat
// instead of new records — returning the concatenated framed records
// before that and the epoch the heartbeat names.
func drainSession(t *testing.T, sess *SyncSession) ([]byte, uint64) {
	t.Helper()
	var out []byte
	var last uint64
	for {
		data, err := sess.Wait(50 * time.Millisecond)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if e, ok := heartbeat(data); ok && e <= last {
			return out, e
		}
		out = append(out, data...)
		last = max(last, applyStream(t, graph.New(0), bytes.NewReader(data)))
	}
}

// sessionCheckpoint reads the checkpoint a sync session ships, whole.
func sessionCheckpoint(t *testing.T, sess *SyncSession) []byte {
	t.Helper()
	b, err := io.ReadAll(sess.Checkpoint)
	if err != nil || int64(len(b)) != sess.Size {
		t.Fatalf("session checkpoint: read %d of %d bytes: %v", len(b), sess.Size, err)
	}
	return b
}

// heartbeat returns the epoch of data if data is exactly one idle
// heartbeat: an empty batch record.
func heartbeat(data []byte) (uint64, bool) {
	r := bytes.NewReader(data)
	rec, err := NewStreamReader(r).Next()
	if err != nil || len(rec.Removes)+len(rec.Inserts) > 0 || r.Len() > 0 {
		return 0, false
	}
	return rec.Epoch, true
}

// applyStream replays the framed records left in r onto g at graph level
// and returns the highest epoch a record names.
func applyStream(t *testing.T, g *graph.Graph, r io.Reader) uint64 {
	t.Helper()
	sr := NewStreamReader(r)
	var epoch uint64
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break // clean end at a record boundary
		}
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		applyToGraph(g, rec)
		epoch = max(epoch, rec.Epoch)
	}
	return epoch
}

func assertSameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("graph n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	wc, _ := bz.Decompose(want)
	gc, _ := bz.Decompose(got)
	for v := range wc {
		if gc[v] != wc[v] {
			t.Fatalf("core[%d] = %d, want %d", v, gc[v], wc[v])
		}
	}
	for v := int32(0); int(v) < want.N(); v++ {
		for _, w := range want.Adj(v) {
			if !got.HasEdge(v, w) {
				t.Fatalf("missing edge (%d,%d)", v, w)
			}
		}
	}
}

// TestSyncStream is the session's contract: snapshot + streamed tail
// reconstructs the leader's exact graph, and the last record's epoch is
// the leader's final epoch. The follower reads both off one reader, as
// it does off its socket: ReadCheckpoint must stop exactly at the
// snapshot's end for the records after it to decode.
func TestSyncStream(t *testing.T) {
	base := gen.ErdosRenyi(100, 300, 11)
	m, mgr := startManaged(t, t.TempDir(), base.Clone(), Options{Fsync: FsyncNo})
	defer m.Close()
	defer mgr.Close()

	syncEpoch := m.Epoch()
	sess, err := mgr.StartSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Mixed churn after the sync point: inserts, removes, implicit and
	// explicit growth.
	m.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 120, V: 5}})
	m.RemoveEdges([]graph.Edge{{U: 1, V: 2}})
	m.AddVertices(30)
	m.InsertEdges([]graph.Edge{{U: 140, V: 141}, {U: 141, V: 142}})
	wantEpoch := m.Flush()

	stream, lastEpoch := drainSession(t, sess)
	if lastEpoch != wantEpoch {
		t.Fatalf("streamed epoch = %d, want %d", lastEpoch, wantEpoch)
	}
	wire := bytes.NewReader(append(sessionCheckpoint(t, sess), stream...))
	follower, ckGen, ckEpoch, err := ReadCheckpoint(wire, sess.Size)
	if err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if follower.N() != base.N() || follower.M() != base.M() {
		t.Fatalf("snapshot n=%d m=%d, want n=%d m=%d", follower.N(), follower.M(), base.N(), base.M())
	}
	if ckGen != mgr.Stats().Gen || ckEpoch != syncEpoch {
		t.Fatalf("snapshot header gen=%d epoch=%d, want gen=%d epoch=%d", ckGen, ckEpoch, mgr.Stats().Gen, syncEpoch)
	}
	if applied := applyStream(t, follower, wire); applied != wantEpoch {
		t.Fatalf("applied epoch = %d, want %d", applied, wantEpoch)
	}
	assertSameGraph(t, follower, m.Graph())
}

// TestSyncIsCheckpoint: a sync takes a checkpoint and ships its file.
// The session's payload is the file then current by name, the sync
// counts as one checkpoint of a new generation, the first record shipped
// is the publication right after the checkpoint's epoch, and the payload
// still reads whole after a later checkpoint has deleted its generation.
func TestSyncIsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, mgr := startManaged(t, dir, gen.ErdosRenyi(200, 600, 13), Options{Fsync: FsyncAlways})
	defer m.Close()
	defer mgr.Close()
	m.InsertEdges([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}})
	epoch := m.Flush()
	edges := m.Snapshot().M()

	before := mgr.Stats()
	sess, err := mgr.StartSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	after := mgr.Stats()
	if after.Gen != before.Gen+1 || after.Checkpoints != before.Checkpoints+1 {
		t.Fatalf("sync moved gen %d → %d and checkpoints %d → %d, want +1 each",
			before.Gen, after.Gen, before.Checkpoints, after.Checkpoints)
	}
	_, cur, err := scanGenerations(dir)
	if err != nil || cur != after.Gen {
		t.Fatalf("current generation = %d (err=%v), want the sync's generation %d", cur, err, after.Gen)
	}
	file, err := os.ReadFile(checkpointPath(dir, cur))
	if err != nil {
		t.Fatal(err)
	}

	m.InsertEdges([]graph.Edge{{U: 5, V: 150}})
	m.Flush()
	data, err := sess.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewStreamReader(bytes.NewReader(data)).Next()
	if err != nil || rec.Epoch != epoch+1 || !slices.Equal(rec.Inserts, []graph.Edge{{U: 5, V: 150}}) {
		t.Fatalf("first streamed record = %+v, %v; want the insert at epoch %d", rec, err, epoch+1)
	}

	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(checkpointPath(dir, cur)); !os.IsNotExist(err) {
		t.Fatalf("generation %d's checkpoint after the next checkpoint: %v, want it deleted", cur, err)
	}
	payload := sessionCheckpoint(t, sess)
	if !bytes.Equal(payload, file) {
		t.Fatalf("session payload (%d B) differs from generation %d's checkpoint file (%d B)", len(payload), cur, len(file))
	}
	g, ckGen, ckEpoch, err := ReadCheckpoint(bytes.NewReader(payload), sess.Size)
	if err != nil || ckGen != cur || ckEpoch != epoch || g.M() != edges {
		t.Fatalf("payload decodes to gen %d epoch %d (err %v), want gen %d epoch %d", ckGen, ckEpoch, err, cur, epoch)
	}
}

// TestSyncIdlePingEpoch: an idle Wait hands out one heartbeat, an empty
// batch record at the sync epoch, and repeats it while the leader stays
// quiet, so a follower of a quiet leader can still satisfy CORE.WAIT.
func TestSyncIdlePingEpoch(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(20, 40, 1), Options{Fsync: FsyncNo})
	defer m.Close()
	defer mgr.Close()

	sess, err := mgr.StartSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, _, want, err := ReadCheckpoint(sess.Checkpoint, sess.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		data, err := sess.Wait(20 * time.Millisecond)
		if epoch, ok := heartbeat(data); err != nil || !ok || epoch != want {
			t.Fatalf("idle Wait %d = (%x, %v), want one empty batch record at sync epoch %d", i, data, err, want)
		}
	}
}

// TestGrowBeyondIDRangeRejected pins what the two consumers of framed
// records make of each kind of record: crash recovery, appending it to
// a log's tail, and a follower's StreamReader, reading it off the wire.
// Vertex ids are int32, so a grow past MaxInt32 vertices is a history no
// leader wrote, CRC or not, while a grow to exactly MaxInt32 is one. A
// frame error is a torn tail to recovery and an error to the stream, and
// a length prefix far beyond the stream costs the reader no more than
// the stream holds; a frame that holds around a payload that does not
// decode fails recovery. Each record is appended alone, at the log's next
// epoch unless it tests the epoch chain: a record that skips or repeats
// an epoch decodes on the stream, where the follower judges it against
// its epoch, and truncates recovery.
func TestGrowBeyondIDRangeRejected(t *testing.T) {
	type outcome int
	const (
		applied outcome = iota
		tornTail
		fatal
		notReplayed // recovery would apply it: a 2^31-vertex graph
		outOfOrder  // recovery stops before it and reports Truncated
	)

	dir, _, seg := buildDirWithTail(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := baseline.Epoch + 1
	frame := func(p []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crcTable))
		return append(b, p...)
	}
	// batch frames a batch payload whose counts need not match its edges.
	batch := func(nRemoves, nInserts uint32, edges ...graph.Edge) []byte {
		p := binary.LittleEndian.AppendUint64(nil, next)
		p = binary.LittleEndian.AppendUint32(p, nRemoves)
		p = binary.LittleEndian.AppendUint32(p, nInserts)
		for _, e := range edges {
			p = binary.LittleEndian.AppendUint32(p, uint32(e.U))
			p = binary.LittleEndian.AppendUint32(p, uint32(e.V))
		}
		return frame(p)
	}
	e1, e2, e3 := graph.Edge{U: 1, V: 59}, graph.Edge{U: 2, V: 3}, graph.Edge{U: 4, V: 5}
	insert := appendBatchRecord(nil, next, nil, []graph.Edge{e1})
	badCRC := append([]byte(nil), insert...)
	badCRC[4] ^= 0x5a
	hugeLen := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	hugeLen = append(hugeLen, make([]byte, 60)...)
	rows := []struct {
		name    string
		rec     []byte
		recover outcome
		stream  *StreamRecord // nil: Next fails
	}{
		{"insert", insert, applied, &StreamRecord{Epoch: next, Inserts: []graph.Edge{e1}}},
		{"mixed batch", appendBatchRecord(nil, next, []graph.Edge{e2}, []graph.Edge{e3, e1}), applied,
			&StreamRecord{Epoch: next, Removes: []graph.Edge{e2}, Inserts: []graph.Edge{e3, e1}}},
		{"empty heartbeat", appendBatchRecord(nil, next, nil, nil), applied, &StreamRecord{Epoch: next}},
		{"epoch gap", appendBatchRecord(nil, next+1, nil, []graph.Edge{e1}), outOfOrder,
			&StreamRecord{Epoch: next + 1, Inserts: []graph.Edge{e1}}},
		{"epoch repeat", appendBatchRecord(nil, next-1, nil, []graph.Edge{{U: 99, V: 99}}), outOfOrder,
			&StreamRecord{Epoch: next - 1, Inserts: []graph.Edge{{U: 99, V: 99}}}},
		{"grow to MaxInt32", appendBatchRecord(nil, next, nil, []graph.Edge{{U: math.MaxInt32 - 1, V: math.MaxInt32 - 1}}), notReplayed,
			&StreamRecord{Epoch: next, Inserts: []graph.Edge{{U: math.MaxInt32 - 1, V: math.MaxInt32 - 1}}}},
		// The id 1<<31, a grow past MaxInt32 vertices, is 0x80000000 on the
		// wire and reads as a negative int32.
		{"grow to 1<<31", appendBatchRecord(nil, next, nil, []graph.Edge{{U: math.MinInt32, V: 3}}), fatal, nil},
		{"negative id", appendBatchRecord(nil, next, nil, []graph.Edge{{U: -1, V: 3}}), fatal, nil},
		{"count/length mismatch", batch(1, 1, e1, e2, e3), fatal, nil},
		{"nRemoves beyond the edges", batch(2, 0, e1), fatal, nil},
		{"bad CRC", badCRC, tornTail, nil},
		{"frame cut mid-payload", insert[:recHeaderSize+3], tornTail, nil},
		{"length prefix 0xFFFFFFF0 over 64 bytes", hugeLen, tornTail, nil},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := NewStreamReader(bytes.NewReader(row.rec)).Next()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("StreamReader allocated %d bytes on a %d-byte stream", grew, len(row.rec))
			}
			switch {
			case row.stream == nil && err == nil:
				t.Errorf("StreamReader took it: %+v", got)
			case row.stream != nil && err != nil:
				t.Errorf("StreamReader: %v, want %+v", err, *row.stream)
			case row.stream != nil && (got.Epoch != row.stream.Epoch ||
				!slices.Equal(got.Removes, row.stream.Removes) || !slices.Equal(got.Inserts, row.stream.Inserts)):
				t.Errorf("StreamReader = %+v, want %+v", got, *row.stream)
			}

			if row.recover == notReplayed {
				return
			}
			if err := os.WriteFile(seg, append(append([]byte(nil), data...), row.rec...), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Recover(dir)
			switch row.recover {
			case fatal:
				if err == nil {
					t.Errorf("Recover = %+v, want an error", res)
				}
			case applied:
				if err != nil || res.TornBytes != 0 || res.TailRecords != baseline.TailRecords+1 {
					t.Errorf("Recover = %+v, %v; want the record applied", res, err)
				}
			case tornTail:
				if err != nil || res.TornBytes != int64(len(row.rec)) || res.TailRecords != baseline.TailRecords {
					t.Errorf("Recover = %+v, %v; want a %d-byte torn tail", res, err, len(row.rec))
				}
			case outOfOrder:
				if err != nil || !res.Truncated || res.TornBytes != int64(len(row.rec)) || res.TailRecords != baseline.TailRecords {
					t.Errorf("Recover = %+v, %v; want it truncated before the record", res, err)
				}
			}
		})
	}
}

// TestSlowFollowerDropped: a follower's backlog is the log on disk, and
// the leader never waits for it. A session parked past 1 MiB of records
// inside one generation later drains every one of them, epochs
// contiguous, at about syncReadBytes per Wait; a session parked across
// two checkpoints finds the segment it needs next deleted and ends with
// errSlowFollower, while the leader keeps appending.
func TestSlowFollowerDropped(t *testing.T) {
	// 1 000 edges to vertices the base graph lacks: each batch logs an
	// 8 KiB record, inserting them or removing them again.
	edges := make([]graph.Edge, 1000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(1000 + i)}
	}
	t.Run("within a generation", func(t *testing.T) {
		m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(50, 100, 3),
			Options{Fsync: FsyncNo, CheckpointOps: -1, CheckpointBytes: -1})
		defer m.Close()
		defer mgr.Close()
		syncEpoch := m.Epoch()
		sess, err := mgr.StartSync(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if st := mgr.Stats(); st.SyncFollowers != 1 {
			t.Fatalf("SyncFollowers = %d, want 1", st.SyncFollowers)
		}
		gen0 := mgr.Stats().Gen

		// Never drain while the leader logs 140 records.
		for i := 0; i < 70; i++ {
			m.InsertEdges(edges)
			m.RemoveEdges(edges)
		}
		last := m.Flush()
		if st := mgr.Stats(); st.Gen != gen0 || st.AppendedBytes < 1<<20 {
			t.Fatalf("leader at gen %d with %d log bytes, want gen %d and over 1 MiB", st.Gen, st.AppendedBytes, gen0)
		}

		want, waits := syncEpoch+1, 0
		for {
			data, err := sess.Wait(50 * time.Millisecond)
			if err != nil {
				t.Fatalf("Wait after %d records: %v", want-syncEpoch-1, err)
			}
			if e, ok := heartbeat(data); ok {
				if e != last || want != last+1 {
					t.Fatalf("idle at epoch %d having shipped up to %d, want both at %d", e, want-1, last)
				}
				break
			}
			waits++
			if len(data) > syncReadBytes+recHeaderSize+batchHeaderSize+8*len(edges) {
				t.Fatalf("one Wait returned %d bytes, want about %d at most", len(data), syncReadBytes)
			}
			sr := NewStreamReader(bytes.NewReader(data))
			for {
				rec, err := sr.Next()
				if err == io.EOF {
					break
				}
				if err != nil || rec.Epoch != want || len(rec.Removes)+len(rec.Inserts) != len(edges) {
					t.Fatalf("record at epoch %d (%v), want %d edges at epoch %d", rec.Epoch, err, len(edges), want)
				}
				want++
			}
		}
		if waits < 4 {
			t.Fatalf("drained in %d Waits, want at least 4 of about %d KiB", waits, syncReadBytes>>10)
		}
		if err := mgr.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("across two checkpoints", func(t *testing.T) {
		m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(50, 100, 3), Options{Fsync: FsyncNo})
		defer m.Close()
		defer mgr.Close()
		syncEpoch := m.Epoch()
		sess, err := mgr.StartSync(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()

		m.InsertEdges(edges)
		if err := mgr.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		m.RemoveEdges(edges)
		if err := mgr.CheckpointNow(); err != nil {
			t.Fatal(err)
		}

		// The sync's own segment is deleted but open: its record still
		// ships. The next one was deleted before the session opened it.
		data, err := sess.Wait(time.Second)
		if rec, rerr := NewStreamReader(bytes.NewReader(data)).Next(); err != nil || rerr != nil || rec.Epoch != syncEpoch+1 {
			t.Fatalf("first Wait = record at epoch %d (%v, %v), want the insert at epoch %d", rec.Epoch, err, rerr, syncEpoch+1)
		}
		if _, err := sess.Wait(time.Second); !errors.Is(err, errSlowFollower) {
			t.Fatalf("Wait a whole checkpoint behind = %v, want errSlowFollower", err)
		}
		if st := mgr.Stats(); st.SyncFollowers != 1 || st.SyncDropped != 1 {
			t.Fatalf("after the drop: followers=%d dropped=%d, want 1/1 until Close", st.SyncFollowers, st.SyncDropped)
		}
		sess.Close()
		if st := mgr.Stats(); st.SyncFollowers != 0 || st.SyncDropped != 1 {
			t.Fatalf("after Close: followers=%d dropped=%d, want 0/1", st.SyncFollowers, st.SyncDropped)
		}
		// The leader keeps appending fine.
		m.InsertEdge(0, 30)
		m.Flush()
		if err := mgr.Err(); err != nil {
			t.Fatalf("leader persistence broke after follower drop: %v", err)
		}
	})
}

// parkedCommit is a Manager as a maintainer's OpLog with every Commit
// parked until the test releases it: the batch is logged — and, under
// FsyncAlways, synced — but its epoch does not publish.
type parkedCommit struct {
	*Manager
	parked, release chan struct{}
}

func (l parkedCommit) Commit() {
	l.parked <- struct{}{}
	<-l.release
	l.Manager.Commit()
}

// TestSessionShipsOnlyPublished: a sync session ships a record only once
// its epoch has published, so a follower never holds a state the leader
// does not serve, whichever policy wrote the record to the log first.
func TestSessionShipsOnlyPublished(t *testing.T) {
	for _, policy := range []Fsync{FsyncNo, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			mgr, err := NewManager(t.TempDir(), Options{Fsync: policy, Logger: testLogger(t)})
			if err != nil {
				t.Fatal(err)
			}
			lg := parkedCommit{mgr, make(chan struct{}), make(chan struct{})}
			m := kcore.New(gen.ErdosRenyi(20, 40, 7), kcore.WithOpLog(lg))
			defer m.Close()
			defer mgr.Close()
			if err := mgr.Start(m); err != nil {
				t.Fatal(err)
			}
			epoch := m.Epoch()
			sess, err := mgr.StartSync(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			// Released once, and before m.Close if the test fails parked.
			release := sync.OnceFunc(func() { close(lg.release) })
			defer release()
			done := make(chan struct{})
			go func() { defer close(done); m.InsertEdge(1, 20) }()
			<-lg.parked
			data, err := sess.Wait(200 * time.Millisecond)
			if e, ok := heartbeat(data); err != nil || !ok || e != epoch {
				t.Fatalf("Wait while epoch %d is unpublished = (%x, %v), want only the heartbeat at epoch %d", epoch+1, data, err, epoch)
			}
			release()
			<-done
			data, err = sess.Wait(time.Second)
			rec, rerr := NewStreamReader(bytes.NewReader(data)).Next()
			if err != nil || rerr != nil || rec.Epoch != epoch+1 || !slices.Equal(rec.Inserts, []graph.Edge{{U: 1, V: 20}}) {
				t.Fatalf("Wait after the publication = %+v (%v, %v), want the insert at epoch %d", rec, err, rerr, epoch+1)
			}
		})
	}
}

// TestSyncClosedOnManagerClose: the manager's Close wakes a parked Wait
// with a terminal error instead of leaving it hanging.
func TestSyncClosedOnManagerClose(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(20, 40, 5), Options{Fsync: FsyncNo})
	defer m.Close()

	sess, err := mgr.StartSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := sess.Wait(10 * time.Second)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, errSyncClosed) {
			t.Fatalf("Wait after Close = %v, want errSyncClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still parked after manager Close")
	}
	if _, err := mgr.StartSync(nil); err == nil {
		t.Fatal("StartSync succeeded on a closed manager")
	}
}

// TestCheckpointHammer shakes the checkpoint serialization paths: BGSave
// spam, direct CheckpointNow spam, and an insert burst all racing a
// Close. Pins the two bugs this combination used to reach: a checkpoint
// racing Close reopening a fresh segment on a closed manager (leaked
// fd, post-Close files), and queued requests double-rotating an
// unchanged state.
func TestCheckpointHammer(t *testing.T) {
	dir := t.TempDir()
	m, mgr := startManaged(t, dir, gen.ErdosRenyi(100, 200, 9),
		Options{Fsync: FsyncAlways, CheckpointOps: 50, Logger: testLogger(t)})
	defer m.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // write burst arming the ops threshold continuously
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.InsertEdge(int32(i%100), int32((i+7)%100))
			m.RemoveEdge(int32(i%100), int32((i+7)%100))
		}
	}()
	go func() { // BGSAVE spam
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mgr.BGSave()
		}
	}()
	go func() { // synchronous checkpoint spam (the SIGTERM path)
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mgr.CheckpointNow()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	// Close while everything is still running.
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	if err := mgr.Err(); err != nil {
		t.Fatalf("sticky error after hammer: %v", err)
	}
	// A post-Close checkpoint must decline, not reopen a segment.
	if err := mgr.CheckpointNow(); !errors.Is(err, errManagerClosed) {
		t.Fatalf("CheckpointNow after Close = %v, want errManagerClosed", err)
	}
	mgr.mu.Lock()
	f := mgr.f
	mgr.mu.Unlock()
	if f != nil {
		t.Fatal("segment file still open after Close")
	}
}

// TestBackgroundCheckpointCoalesces: a queued checkpoint request with
// nothing appended since the last checkpoint is absorbed instead of
// rotating an identical generation.
func TestBackgroundCheckpointCoalesces(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(30, 60, 2), Options{Fsync: FsyncNo})
	defer m.Close()
	defer mgr.Close()

	// No ops since Start's initial checkpoint: BGSave must coalesce away.
	if err := mgr.BGSave(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got := mgr.Stats().Checkpoints; got != 1 {
		t.Fatalf("idle BGSave ran a checkpoint: count = %d, want 1", got)
	}

	// With ops pending it must still run.
	m.InsertEdge(1, 2)
	m.Flush()
	if err := mgr.BGSave(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && mgr.Stats().Checkpoints < 2; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := mgr.Stats().Checkpoints; got != 2 {
		t.Fatalf("BGSave with pending ops: count = %d, want 2", got)
	}
}

// FuzzStreamRecord feeds arbitrary bytes to StreamReader.Next, which
// must never panic, and re-encodes every record it accepts: a batch must
// come back as exactly the bytes it was read from, so the decoder
// accepts only what the encoder writes.
func FuzzStreamRecord(f *testing.F) {
	e := []graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}, {U: 1, V: 59}}
	f.Add(appendBatchRecord(nil, 8, e[:1], e[1:]))
	f.Add(appendBatchRecord(nil, 9, nil, nil))
	f.Add(appendBatchRecord(nil, 1, nil, e))
	f.Add(appendBatchRecord(nil, 3, nil, []graph.Edge{{U: 999, V: 999}}))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rec, err := NewStreamReader(r).Next()
		if err != nil {
			return
		}
		again := appendBatchRecord(nil, rec.Epoch, rec.Removes, rec.Inserts)
		if read := data[:len(data)-r.Len()]; !bytes.Equal(again, read) {
			t.Fatalf("record %+v re-encodes to %x, read from %x", rec, again, read)
		}
	})
}
