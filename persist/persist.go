// Package persist is the durability subsystem of the serving layer: a
// Redis-style append-only op log (AOF) plus periodic checkpoint
// snapshots, so a kcored restart recovers the maintained graph in one
// binary read and a short log replay instead of minutes of
// re-decomposition.
//
// The design taps the one quiescent point the pipeline already has: the
// Manager implements kcore.OpLog, so the applier hands it every
// coalesced batch's canonical post-scan ops (in applied order, before
// the engine applies them), and commits the record before the batch
// publishes. With FsyncAlways a record is synced before it publishes and
// before any ack — every acknowledged write is crash-safe — while the
// sync itself runs beside the batch's engine round. Periodic
// checkpoints (a generation: graph binary CSR + epoch) capture full
// state at a quiescent point and rotate the log, which is also the AOF
// rewrite/compaction mechanism: the old generation's log is
// deleted once the new checkpoint is durable, so the log never dwarfs
// the graph by more than one checkpoint interval. The state is encoded
// straight into the checkpoint file at the barrier — encoding and
// page-cache writes happen there, fsync and rename after it — so no
// encoded copy of the graph is ever held in memory.
//
// The log's unit is the maintainer's unit of publication: one record per
// batch, under one CRC, carrying the epoch its publication gets — an
// explicit growth to n is the batch inserting the self-loop (n−1, n−1).
// A checkpoint commits by its own rename, so a directory holds two file
// kinds and has one commit point: recovery (see Recover) loads the
// newest committed checkpoint and replays the log tail at graph level,
// record by record, tolerating a torn or truncated final record — so a
// crash recovers the state at some published epoch, never half a batch.
// The recovered graph then seeds an ordinary kcore.New, whose one BZ decomposition is the
// only recomputation paid. A replication follower is handed its state
// the same way: CORE.SYNC takes a checkpoint and ships its committed
// file, decoded by the same ReadCheckpoint, and the record tail after it
// goes through the same StreamReader that replays the log — there is
// one barrier that captures full state, one encoding of it, one record
// kind, and one record reader (see stream.go).
//
// Wiring order matters (chicken-and-egg between Manager and Maintainer):
//
//	res, _ := persist.Recover(dir)           // nil Graph when dir is fresh
//	mgr, _ := persist.NewManager(dir, opts)
//	m := kcore.New(g, kcore.WithOpLog(mgr))  // g = res.Graph or a fresh build
//	mgr.Start(m)                             // initial checkpoint, log opens
//	defer mgr.Close()
//
// Start takes a synchronous checkpoint of the maintainer's current state
// (this is what makes `kcored -load -dir` import-then-checkpoint work),
// so ops applied before Start need no log: the checkpoint covers them.
package persist

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/kcore"
	"repro/obs"
)

// Fsync is the AOF sync policy.
type Fsync int

const (
	// FsyncAlways syncs every appended record before it publishes and
	// before any ack — no acknowledged write is ever lost. The sync runs
	// on the Manager's syncer goroutine while the engine applies the
	// batch, and Commit waits for it. The cost is one fsync per coalesced
	// engine batch (not per command: pipelined bursts share it), of which
	// the applier pays only what the engine round does not hide.
	FsyncAlways Fsync = iota
	// FsyncEverySec syncs once per second from a background goroutine —
	// a crash loses at most the last second of writes.
	FsyncEverySec
	// FsyncNo never syncs explicitly; the OS flushes on its own
	// schedule. Fastest, weakest.
	FsyncNo
)

// String returns the policy's flag spelling (always/everysec/no).
func (f Fsync) String() string {
	switch f {
	case FsyncAlways:
		return "always"
	case FsyncEverySec:
		return "everysec"
	case FsyncNo:
		return "no"
	}
	return fmt.Sprintf("Fsync(%d)", int(f))
}

// ParseFsync parses a -aof-fsync flag value.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "everysec":
		return FsyncEverySec, nil
	case "no":
		return FsyncNo, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always|everysec|no)", s)
}

// Options configures a Manager.
type Options struct {
	// Fsync is the AOF sync policy; default FsyncEverySec.
	Fsync Fsync
	// CheckpointOps triggers a background checkpoint (and log rotation)
	// once this many edge ops have been appended since the last one.
	// 0 picks the default (200k); negative disables the ops threshold.
	CheckpointOps int64
	// CheckpointBytes is the same threshold in appended log bytes.
	// 0 picks the default (256 MiB); negative disables it.
	CheckpointBytes int64
	// SyncBufferBytes bounds each replication follower tap's backlog of
	// not-yet-streamed records; a tap exceeding it is dropped and its
	// follower must re-sync (the slow-follower policy). 0 or negative
	// picks the default (8 MiB).
	SyncBufferBytes int64
	// Logger receives recovery/checkpoint/error lines; nil uses the
	// standard logger.
	Logger *log.Logger
}

const (
	defaultCheckpointOps   = 200_000
	defaultCheckpointBytes = 256 << 20
)

// errManagerClosed declines work that raced Close; it is a refusal, not
// a persistence failure, so it never trips the sticky error.
var errManagerClosed = errors.New("persist: manager closed")

// Stats is a point-in-time view of the durability subsystem; the same
// numbers are surfaced over the wire by RegisterMetrics' series.
type Stats struct {
	Gen                uint64        // current generation
	Records            int64         // AOF records appended (lifetime)
	AppendedBytes      int64         // AOF bytes appended (lifetime)
	OpsSinceCheckpoint int64         // edge ops logged since the last rotation
	Checkpoints        int64         // checkpoints completed (initial included)
	LastSave           time.Time     // completion time of the last checkpoint
	LastSaveDuration   time.Duration // wall time of the last checkpoint
	Fsync              Fsync
	SyncFollowers      int    // live replication follower taps
	SyncDropped        int64  // follower taps dropped by the slow-follower policy (lifetime)
	Err                string // sticky append/checkpoint error ("" = healthy)
}

// Manager owns one durability directory: the open AOF segment, the
// checkpoint worker, the fsync policy and, under FsyncAlways, the syncer
// goroutine. It implements kcore.OpLog; attach it with kcore.WithOpLog
// and activate it with Start. All methods are safe for concurrent use.
type Manager struct {
	dir  string
	opts Options

	m *kcore.Maintainer // set by Start

	// mu guards the append path: the open segment, the encode scratch,
	// the since-rotation counters, and the sticky error.
	mu         sync.Mutex
	f          *os.File
	gen        uint64
	buf        []byte
	dirty      bool // unsynced appends (FsyncEverySec)
	opsSince   int64
	bytesSince int64
	err        error
	taps       []*tap // replication follower fan-out (see stream.go)

	// The FsyncAlways syncer: AppendBatch hands each written record to
	// it and sets syncing; the syncer syncs the segment, fans the record
	// out, clears syncing and broadcasts synced. While syncing, f and buf
	// hold still: every path that would change them (the next append,
	// rotateSegment, Close) first waits it out, so at most one sync is in
	// flight.
	syncing    bool
	synced     sync.Cond // L is &mu
	syncReq    chan syncJob
	syncerDone chan struct{}

	// ckptMu serializes checkpoints (threshold-triggered, BGSave,
	// CheckpointNow, Start's initial one).
	ckptMu sync.Mutex

	ckptReq chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool

	records       atomic.Int64
	syncsStarted  atomic.Int64
	syncDropped   atomic.Int64
	appendedBytes atomic.Int64
	checkpoints   atomic.Int64
	lastSaveUnix  atomic.Int64
	lastSaveDur   atomic.Int64
	tapSeq        atomic.Int64

	// fsyncLat times every AOF fsync (the FsyncAlways per-batch sync and
	// the everysec background sync alike) — the durability subsystem's
	// primary latency signal, exported via RegisterMetrics.
	fsyncLat *obs.Histogram
	// pauseLat times each checkpoint's quiescent barrier, a sync's
	// included: how long the applier, and so every write, waits on a
	// full-state capture.
	pauseLat *obs.Histogram
	// commitWait times each FsyncAlways Commit: how long the applier
	// blocked on its record's sync — the part the engine round did not
	// hide.
	commitWait *obs.Histogram
}

// syncJob is one written record awaiting its FsyncAlways sync: the
// segment holding it and the publication it names.
type syncJob struct {
	f     *os.File
	epoch uint64
}

// NewManager prepares a Manager over dir (created if absent). No files
// are written until Start.
func NewManager(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.CheckpointOps == 0 {
		opts.CheckpointOps = defaultCheckpointOps
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCheckpointBytes
	}
	if opts.SyncBufferBytes <= 0 {
		opts.SyncBufferBytes = defaultSyncBufferBytes
	}
	p := &Manager{
		dir:     dir,
		opts:    opts,
		ckptReq: make(chan struct{}, 1),
		quit:    make(chan struct{}),
		fsyncLat: obs.NewDurationHistogram("kcored_aof_fsync_seconds",
			"AOF fsync latency (per-batch under -aof-fsync always, background under everysec).",
			obs.L("policy", opts.Fsync.String())),
		pauseLat: obs.NewDurationHistogram("kcored_checkpoint_pause_seconds",
			"Quiescent-barrier part of each checkpoint, a CORE.SYNC's included: checkpoint encoding, its page-cache writes and the log rotation; writes wait for it."),
		commitWait: obs.NewDurationHistogram("kcored_aof_commit_wait_seconds",
			"Per batch under -aof-fsync always: time the applier blocked on the log sync after its engine round."),
	}
	p.synced.L = &p.mu
	return p, nil
}

// Start activates durability for m: it takes a synchronous checkpoint of
// m's current state (a fresh generation strictly above anything already
// in the directory), opens the new AOF segment, and starts the
// background checkpoint/fsync worker and, under FsyncAlways, the syncer.
// Returns once the checkpoint is committed — from that point on, every
// acknowledged write survives a crash (modulo the fsync policy's
// window).
func (p *Manager) Start(m *kcore.Maintainer) error {
	if p.m != nil {
		return errors.New("persist: Start called twice")
	}
	p.m = m
	last, _, err := scanGenerations(p.dir)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.gen = last // the initial checkpoint rotates to last+1
	p.mu.Unlock()
	if p.opts.Fsync == FsyncAlways {
		// Before the first segment opens: its first append hands off.
		// Not p.loop, which blocks in CheckpointNow on the applier while
		// the applier may be waiting in Commit.
		p.syncReq = make(chan syncJob, 1)
		p.syncerDone = make(chan struct{})
		go p.syncer()
	}
	if err := p.CheckpointNow(); err != nil {
		return err
	}
	p.wg.Add(1)
	go p.loop()
	return nil
}

// Close stops the worker and the syncer, and syncs and closes the AOF
// segment. It does not take a final checkpoint — call CheckpointNow
// first for that (as kcored's graceful shutdown does); the synced log
// alone already guarantees complete recovery.
func (p *Manager) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	if p.started.Load() {
		close(p.quit)
		p.wg.Wait()
	}
	p.mu.Lock()
	p.awaitSyncLocked()
	p.killTapsLocked()
	var err error
	if p.f != nil {
		err = p.f.Sync()
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
		p.f = nil
	}
	// With f nil no append hands off again, so the syncer may go.
	if p.syncReq != nil {
		close(p.syncReq)
	}
	p.mu.Unlock()
	if p.syncReq != nil {
		<-p.syncerDone
	}
	return err
}

// --- kcore.OpLog ------------------------------------------------------------

// AppendBatch logs one batch's canonical ops as one record, the
// publication at the maintainer's next epoch. Called by the maintainer's
// applier at the quiescent point, before the batch applies; Commit
// follows before it publishes. A record still syncing from an append
// that was never committed is synced first. Under FsyncAlways the
// append hands the sync to the syncer, which fans the record out to the
// replication taps once it is durable — so no follower holds a record
// the leader's disk lacks — and Commit arms the checkpoint thresholds.
// Under the other policies it fans out and arms them here. A failure is
// recorded as the sticky error.
func (p *Manager) AppendBatch(removes, inserts []graph.Edge) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitSyncLocked()
	if p.f == nil || p.err != nil {
		return
	}
	epoch := p.m.Epoch() + 1
	p.buf = appendBatchRecord(p.buf[:0], epoch, removes, inserts)
	if _, err := p.f.Write(p.buf); err != nil {
		p.failLocked(fmt.Errorf("persist: append: %w", err))
		return
	}
	p.records.Add(1)
	p.appendedBytes.Add(int64(len(p.buf)))
	p.bytesSince += int64(len(p.buf))
	p.opsSince += int64(len(removes) + len(inserts))
	switch p.opts.Fsync {
	case FsyncAlways:
		p.syncing = true
		p.syncReq <- syncJob{f: p.f, epoch: epoch} // buffered: at most one in flight
		return
	case FsyncEverySec:
		p.dirty = true
	}
	p.fanLocked(p.buf, epoch)
	p.armCheckpointLocked()
}

// Commit returns once the last appended record is as durable as the
// policy promises: under FsyncAlways it waits for the syncer and then
// arms the checkpoint thresholds; under the other policies the append
// already did everything, and Commit returns at once. The maintainer's
// applier calls it after the batch's engine round, before the batch
// publishes.
func (p *Manager) Commit() {
	if p.opts.Fsync != FsyncAlways {
		return
	}
	start := time.Now()
	p.mu.Lock()
	p.awaitSyncLocked()
	p.armCheckpointLocked()
	p.mu.Unlock()
	p.commitWait.ObserveDuration(time.Since(start))
}

// awaitSyncLocked waits out a record the syncer is still syncing.
// Cond.Wait releases p.mu meanwhile, which the syncer takes to finish.
// Caller holds p.mu.
func (p *Manager) awaitSyncLocked() {
	for p.syncing {
		p.synced.Wait()
	}
}

// syncer is the FsyncAlways sync worker: it syncs each handed-off
// record's segment, fans the record out to the taps at once — a
// follower's lag does not wait for the leader's engine round — and
// wakes Commit. A failed sync trips the sticky error. It exits when
// Close closes syncReq.
func (p *Manager) syncer() {
	defer close(p.syncerDone)
	for job := range p.syncReq {
		start := time.Now()
		err := job.f.Sync()
		p.mu.Lock()
		if err != nil {
			p.failLocked(fmt.Errorf("persist: fsync: %w", err))
		} else {
			p.fsyncLat.ObserveDuration(time.Since(start))
			p.fanLocked(p.buf, job.epoch)
		}
		p.syncing = false
		p.synced.Broadcast()
		p.mu.Unlock()
	}
}

// armCheckpointLocked requests a background checkpoint once the ops or
// bytes logged since the last rotation cross a threshold. Caller holds
// p.mu.
func (p *Manager) armCheckpointLocked() {
	if (p.opts.CheckpointOps > 0 && p.opsSince >= p.opts.CheckpointOps) ||
		(p.opts.CheckpointBytes > 0 && p.bytesSince >= p.opts.CheckpointBytes) {
		select {
		case p.ckptReq <- struct{}{}:
		default:
		}
	}
}

// failLocked records the first persistence error; the log is abandoned
// (further appends are dropped) but serving continues — the operator
// sees persist_err in CORE.STATS and this one loud log line.
func (p *Manager) failLocked(err error) {
	if p.err != nil {
		return
	}
	p.err = err
	p.killTapsLocked() // followers re-sync from a healthy leader instead
	p.logf("persist: DISABLED after error: %v", err)
}

// --- checkpoints ------------------------------------------------------------

// CheckpointNow takes a checkpoint synchronously: writes the state into
// the checkpoint file and rotates the AOF at a quiescent point, then
// commits the file — fsync, rename, directory fsync — and deletes the
// previous generation. Safe to call concurrently with serving traffic;
// concurrent checkpoints serialize.
func (p *Manager) CheckpointNow() error {
	_, err := p.checkpoint(false)
	return err
}

// checkpoint is CheckpointNow. With follow set, the barrier also
// registers a follower tap at the checkpoint's epoch, and once the
// checkpoint is committed the returned session holds its file open — a
// later checkpoint, which needs ckptMu, cannot delete it before.
func (p *Manager) checkpoint(follow bool) (*SyncSession, error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.m == nil {
		return nil, errors.New("persist: not started")
	}
	if p.closed.Load() {
		// A request racing Close (SIGTERM final save vs a threshold
		// checkpoint) lands here instead of reopening a segment on a
		// closed manager.
		return nil, errManagerClosed
	}
	start := time.Now()
	var (
		gen, epoch uint64
		n          int
		m          int64
		f          *os.File
		t          *tap
		err        error
	)
	p.m.AtQuiescence(func(q kcore.QuiescentState) {
		// Quiescent phase: stream the state into the next generation's
		// checkpoint file (encoding and page-cache writes) and switch the
		// op stream to that generation's segment, atomically with
		// respect to appends (which run on this same goroutine). Only
		// ckptMu's holder advances p.gen, so gen is known up front.
		pause := time.Now()
		defer func() { p.pauseLat.ObserveDuration(time.Since(pause)) }()
		p.mu.Lock()
		gen, err = p.gen+1, p.err
		p.mu.Unlock()
		if err != nil {
			return
		}
		g := q.Graph()
		epoch, n, m = q.Epoch(), g.N(), g.M()
		if f, err = writeCheckpointFile(p.dir, gen, epoch, g); err != nil {
			return
		}
		if follow {
			t = newTap(int(p.opts.SyncBufferBytes), epoch)
			t.id = p.tapSeq.Add(1)
		}
		if err = p.rotateSegment(gen, t); err != nil {
			discardCheckpointFile(f)
		}
	})
	if err == nil {
		// After the barrier: fsync, close, rename — the commit —
		// and directory fsync.
		err = commitCheckpointFile(f, p.dir, gen)
	}
	if err != nil {
		if errors.Is(err, errManagerClosed) {
			// Close won the race between our entry check and the
			// quiescent point; nothing is broken — just decline.
			return nil, err
		}
		p.mu.Lock()
		p.failLocked(fmt.Errorf("persist: checkpoint: %w", err)) // kills t too
		p.mu.Unlock()
		return nil, err
	}
	removeStaleGenerations(p.dir, gen)
	p.checkpoints.Add(1)
	p.lastSaveUnix.Store(time.Now().Unix())
	p.lastSaveDur.Store(int64(time.Since(start)))
	p.logf("persist: checkpoint gen %d: n=%d m=%d epoch=%d in %v",
		gen, n, m, epoch, time.Since(start).Round(time.Millisecond))
	if t == nil {
		return nil, nil
	}
	ckpt, err := os.Open(checkpointPath(p.dir, gen))
	if err != nil {
		t.kill()
		p.removeTap(t)
		return nil, err
	}
	p.syncsStarted.Add(1)
	size := int64(checkpointSize(uint64(n), uint64(m)))
	return &SyncSession{Checkpoint: ckpt, Size: size, t: t, p: p}, nil
}

// rotateSegment syncs and closes the current segment and opens
// generation gen's (p.gen+1), at the quiescent point, and adds t, when
// not nil, to the fan-out in the same instant. From here on appends land
// in the new generation, whose checkpoint file is written but not yet
// committed; until its rename commits it, recovery replays the old
// checkpoint plus both segments, so no window loses ops. The new
// segment's directory entry is synced before any record in it can be
// acked, since a file's fsync does not make its name durable.
func (p *Manager) rotateSegment(gen uint64, t *tap) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitSyncLocked()
	if p.err != nil {
		return p.err
	}
	if p.closed.Load() {
		// Close sets closed before taking mu, so once it holds the lock
		// every later rotation observes this and cannot reopen a new
		// segment (a leaked fd and post-Close files otherwise).
		return errManagerClosed
	}
	if p.f != nil {
		// The old segment gets one final sync whatever the policy:
		// recovery tolerates a torn tail only in the newest segment.
		if err := p.f.Sync(); err != nil {
			return err
		}
		if err := p.f.Close(); err != nil {
			return err
		}
		p.f = nil
	}
	f, err := os.OpenFile(segmentPath(p.dir, gen), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	p.buf = appendSegmentHeader(p.buf[:0], gen)
	if _, err := f.Write(p.buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(p.dir); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.gen = gen
	if t != nil {
		p.taps = append(p.taps, t)
	}
	p.opsSince = 0
	p.bytesSince = 0
	p.dirty = false
	p.started.Store(true)
	return nil
}

// BGSave requests an asynchronous checkpoint (the CORE.BGSAVE handler).
// Returns immediately; a checkpoint already in flight absorbs the
// request.
func (p *Manager) BGSave() error {
	if !p.started.Load() {
		return errors.New("persist: not started")
	}
	if err := p.Err(); err != nil {
		return err
	}
	select {
	case p.ckptReq <- struct{}{}:
	default:
	}
	return nil
}

// LastSave returns the completion time of the last checkpoint (zero time
// before the first).
func (p *Manager) LastSave() time.Time {
	u := p.lastSaveUnix.Load()
	if u == 0 {
		return time.Time{}
	}
	return time.Unix(u, 0)
}

// Err returns the sticky persistence error, nil while healthy.
func (p *Manager) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats returns the durability counters.
func (p *Manager) Stats() Stats {
	p.mu.Lock()
	gen, opsSince, followers, err := p.gen, p.opsSince, len(p.taps), p.err
	p.mu.Unlock()
	s := Stats{
		SyncFollowers:      followers,
		SyncDropped:        p.syncDropped.Load(),
		Gen:                gen,
		Records:            p.records.Load(),
		AppendedBytes:      p.appendedBytes.Load(),
		OpsSinceCheckpoint: opsSince,
		Checkpoints:        p.checkpoints.Load(),
		LastSave:           p.LastSave(),
		LastSaveDuration:   time.Duration(p.lastSaveDur.Load()),
		Fsync:              p.opts.Fsync,
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// loop is the background worker: checkpoint requests plus the everysec
// fsync tick.
func (p *Manager) loop() {
	defer p.wg.Done()
	var tick <-chan time.Time
	if p.opts.Fsync == FsyncEverySec {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.quit:
			return
		case <-p.ckptReq:
			// Coalesce: a request armed while a checkpoint was already in
			// flight (threshold re-fire, BGSAVE spam, SIGTERM final save)
			// is satisfied by that checkpoint if no op landed since —
			// skipping it avoids back-to-back rotations of an unchanged
			// state. The threshold re-arms on the next append regardless.
			p.mu.Lock()
			ops := p.opsSince
			p.mu.Unlock()
			if ops == 0 && p.checkpoints.Load() > 0 {
				continue
			}
			if err := p.CheckpointNow(); err != nil {
				p.logf("persist: background checkpoint: %v", err)
			}
		case <-tick:
			p.syncIfDirty()
		}
	}
}

func (p *Manager) syncIfDirty() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dirty || p.f == nil || p.err != nil {
		return
	}
	start := time.Now()
	if err := p.f.Sync(); err != nil {
		p.failLocked(fmt.Errorf("persist: fsync: %w", err))
		return
	}
	p.fsyncLat.ObserveDuration(time.Since(start))
	p.dirty = false
}

func (p *Manager) logf(format string, args ...any) {
	if p.opts.Logger != nil {
		p.opts.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
