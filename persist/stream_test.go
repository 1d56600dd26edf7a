package persist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

// drainSession drains sess until it reports idle with no data, returning
// the concatenated framed records and the last streamed epoch.
func drainSession(t *testing.T, sess *SyncSession) ([]byte, uint64) {
	t.Helper()
	var out []byte
	var epoch uint64
	for {
		data, e, err := sess.Wait(50*time.Millisecond, nil)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		epoch = e
		if data == nil {
			return out, epoch
		}
		out = append(out, data...)
	}
}

// applyStream replays a framed record stream onto g at graph level and
// returns the highest epoch marker seen.
func applyStream(t *testing.T, g *graph.Graph, stream []byte) uint64 {
	t.Helper()
	sr := NewStreamReader(bytes.NewReader(stream))
	var epoch uint64
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break // clean end at a record boundary
		}
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		switch rec.Op {
		case OpInsert:
			for _, e := range rec.Edges {
				if hi := max(e.U, e.V); int(hi) >= g.N() {
					g.Grow(int(hi) + 1)
				}
				g.AddEdge(e.U, e.V)
			}
		case OpRemove:
			for _, e := range rec.Edges {
				g.RemoveEdge(e.U, e.V)
			}
		case OpGrow:
			if rec.N > g.N() {
				g.Grow(rec.N)
			}
		case OpEpoch, OpPing:
			if rec.Epoch > epoch {
				epoch = rec.Epoch
			}
		}
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

// TestSyncStream is the tap's contract: snapshot + streamed tail
// reconstructs the leader's exact graph, and the last epoch marker is
// the leader's final epoch.
func TestSyncStream(t *testing.T) {
	base := gen.ErdosRenyi(100, 300, 11)
	m, mgr := startManaged(t, t.TempDir(), base.Clone(), Options{Fsync: FsyncNo})
	defer mgr.Close()
	defer m.Close()

	sess, err := mgr.StartSync()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Crc != SnapshotCRC(sess.Snapshot) {
		t.Fatal("advertised snapshot CRC does not match the snapshot")
	}
	follower, err := graph.ReadBinary(bytes.NewReader(sess.Snapshot))
	if err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if follower.N() != base.N() || follower.M() != base.M() {
		t.Fatalf("snapshot n=%d m=%d, want n=%d m=%d", follower.N(), follower.M(), base.N(), base.M())
	}

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
	if applied := applyStream(t, follower, stream); applied != wantEpoch {
		t.Fatalf("applied epoch = %d, want %d", applied, wantEpoch)
	}
	assertSameGraph(t, follower, m.Graph())
}

// TestSyncIdlePingEpoch: an idle Wait reports the epoch of the sync
// point, so a follower of a quiet leader can still satisfy CORE.WAIT.
func TestSyncIdlePingEpoch(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(20, 40, 1), Options{Fsync: FsyncNo})
	defer mgr.Close()
	defer m.Close()

	sess, err := mgr.StartSync()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	data, epoch, err := sess.Wait(20*time.Millisecond, nil)
	if err != nil || data != nil {
		t.Fatalf("idle Wait = (%v, %v), want (nil, nil)", data, err)
	}
	if epoch != sess.Epoch {
		t.Fatalf("idle epoch = %d, want sync epoch %d", epoch, sess.Epoch)
	}
}

// TestGrowBeyondIDRangeRejected: vertex ids are int32, so a grow record
// past MaxInt32 vertices is a history no leader wrote, CRC or not. Crash
// recovery refuses it, and so does a follower's StreamReader, which still
// takes a grow to exactly MaxInt32.
func TestGrowBeyondIDRangeRejected(t *testing.T) {
	rec := appendU64Record(nil, recGrow, 1<<31)

	dir, _, seg := buildDirWithTail(t)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("Recover with a grow to 1<<31 logged = %v, want an implausible-grow error", err)
	}

	if got, err := NewStreamReader(bytes.NewReader(rec)).Next(); err == nil {
		t.Fatalf("StreamReader took a grow to 1<<31: %+v", got)
	}
	got, err := NewStreamReader(bytes.NewReader(appendU64Record(nil, recGrow, math.MaxInt32))).Next()
	if err != nil || got.Op != OpGrow || got.N != math.MaxInt32 {
		t.Fatalf("grow to MaxInt32 = %+v, %v", got, err)
	}
}

// TestSlowFollowerDropped: a follower that stops draining overflows its
// bounded tap and is dropped without ever blocking the leader.
func TestSlowFollowerDropped(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(50, 100, 3),
		Options{Fsync: FsyncNo, SyncBufferBytes: 256})
	defer mgr.Close()
	defer m.Close()

	sess, err := mgr.StartSync()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if st := mgr.Stats(); st.SyncFollowers != 1 {
		t.Fatalf("SyncFollowers = %d, want 1", st.SyncFollowers)
	}

	// Never drain; push well past 256 bytes of records.
	edges := make([]graph.Edge, 64)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	m.InsertEdges(edges)
	m.Flush()

	if _, _, err := sess.Wait(time.Second, nil); !errors.Is(err, ErrSlowFollower) {
		t.Fatalf("Wait after overflow = %v, want ErrSlowFollower", err)
	}
	if st := mgr.Stats(); st.SyncFollowers != 0 || st.SyncDropped != 1 {
		t.Fatalf("after drop: followers=%d dropped=%d, want 0/1", st.SyncFollowers, st.SyncDropped)
	}
	// The leader keeps appending fine.
	m.InsertEdge(0, 30)
	m.Flush()
	if err := mgr.Err(); err != nil {
		t.Fatalf("leader persistence broke after follower drop: %v", err)
	}
}

// TestSyncClosedOnManagerClose: Close kills live taps so a parked
// streamer wakes with a terminal error instead of hanging.
func TestSyncClosedOnManagerClose(t *testing.T) {
	m, mgr := startManaged(t, t.TempDir(), gen.ErdosRenyi(20, 40, 5), Options{Fsync: FsyncNo})
	defer m.Close()

	sess, err := mgr.StartSync()
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := sess.Wait(10*time.Second, nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSyncClosed) {
			t.Fatalf("Wait after Close = %v, want ErrSyncClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still parked after manager Close")
	}
	if _, err := mgr.StartSync(); err == nil {
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
	defer mgr.Close()
	defer m.Close()

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
