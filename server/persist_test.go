package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/kcore"
	"repro/persist"
)

// startPersistentServer wires the full durability stack the way kcored
// does: Manager → maintainer (WithOpLog) → Start → server
// (WithPersistence).
func startPersistentServer(t *testing.T, dir string) (*kcore.Maintainer, *persist.Manager, string) {
	t.Helper()
	mgr, err := persist.NewManager(dir, persist.Options{Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m := kcore.New(gen.ErdosRenyi(200, 600, 19), kcore.WithOpLog(mgr), kcore.WithWorkers(2))
	t.Cleanup(func() { mgr.Close(); m.Close() })
	if err := mgr.Start(m); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, m, WithPersistence(mgr))
	return m, mgr, addr
}

// TestBGSaveAndLastSave drives CORE.BGSAVE over the wire and watches the
// checkpoint land via kcored_checkpoints_total in CORE.STATS.
func TestBGSaveAndLastSave(t *testing.T) {
	_, _, addr := startPersistentServer(t, t.TempDir())
	c := dial(t, addr)

	kv := statsMap(t, c)
	if kv["kcored_checkpoints_total"] != 1 {
		t.Fatalf("kcored_checkpoints_total = %g, want 1 after Start", kv["kcored_checkpoints_total"])
	}
	if !hasSeries(kv, "kcored_aof_fsync_seconds_count", `policy="always"`) {
		t.Fatalf("no kcored_aof_fsync_seconds series with policy=\"always\": %v", kv)
	}
	if v, ok := kv[`kcored_persist_err{error=""}`]; !ok || v != 0 {
		t.Fatalf(`kcored_persist_err{error=""} = %g, %v; want a healthy 0`, v, ok)
	}

	if _, err := client.Int(c.Do("CORE.INSERT", "1", "150")); err != nil {
		t.Fatal(err)
	}
	if s, err := client.String(c.Do("CORE.BGSAVE")); err != nil || s != "Background saving started" {
		t.Fatalf("CORE.BGSAVE = %q, %v", s, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if statsMap(t, c)["kcored_checkpoints_total"] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("BGSAVE never completed: %v", statsMap(t, c))
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts, err := client.Int(c.Do("CORE.LASTSAVE"))
	if err != nil {
		t.Fatal(err)
	}
	if now := time.Now().Unix(); ts <= 0 || now-ts > 60 {
		t.Fatalf("CORE.LASTSAVE = %d, now %d", ts, now)
	}
}

// TestPersistenceNotConfigured: without WithPersistence the commands
// fail cleanly instead of panicking.
func TestPersistenceNotConfigured(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(50, 100, 3))
	t.Cleanup(m.Close)
	_, addr := startServer(t, m)
	c := dial(t, addr)
	for _, cmd := range []string{"CORE.BGSAVE", "CORE.LASTSAVE"} {
		if _, err := c.Do(cmd); err == nil {
			t.Fatalf("%s succeeded without persistence", cmd)
		}
	}
	if kv := statsMap(t, c); hasSeries(kv, "kcored_checkpoint_generation", "") {
		t.Fatalf("persistence series present without persistence: %v", kv)
	}
}

// flakyListener fails the first accepts with a scripted error, then
// delegates. It reproduces what Temporary() does NOT cover: EMFILE from
// fd exhaustion.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
	err   error
	seen  int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	inject := l.seen < l.fails
	l.seen++
	l.mu.Unlock()
	if inject {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", l.err)}
	}
	return l.Listener.Accept()
}

// TestAcceptRetriesTransient: the accept loop must survive EMFILE,
// ENFILE and ECONNABORTED bursts and still serve the connection that
// eventually gets through.
func TestAcceptRetriesTransient(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED} {
		t.Run(errno.Error(), func(t *testing.T) {
			m := kcore.New(gen.ErdosRenyi(50, 100, 9))
			t.Cleanup(m.Close)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := &flakyListener{Listener: ln, fails: 3, err: errno}
			srv := New(m, WithLogger(nil))
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(fl) }()
			t.Cleanup(func() { srv.Close(); <-serveDone })

			c := dial(t, ln.Addr().String())
			if s, err := client.String(c.Do("PING")); err != nil || s != "PONG" {
				t.Fatalf("PING after %v burst = %q, %v", errno, s, err)
			}
			fl.mu.Lock()
			seen := fl.seen
			fl.mu.Unlock()
			if seen < 4 {
				t.Fatalf("accept called %d times, want the error burst consumed", seen)
			}
		})
	}
}

// TestAcceptFatalError: a non-transient accept error still ends Serve —
// the retry loop must not spin on permanent failures.
func TestAcceptFatalError(t *testing.T) {
	m := kcore.New(gen.ErdosRenyi(10, 20, 1))
	t.Cleanup(m.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 1 << 30, err: syscall.EBADF}
	srv := New(m, WithLogger(nil))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(fl) }()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want the fatal accept error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve kept retrying a non-transient accept error")
	}
	srv.Close()
	ln.Close()
}

// TestIsTransientAccept pins the classification table.
func TestIsTransientAccept(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
	}
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.ECONNRESET} {
		if !isTransientAccept(wrap(errno)) {
			t.Errorf("%v not classified transient", errno)
		}
	}
	for _, err := range []error{wrap(syscall.EBADF), wrap(syscall.EINVAL), fmt.Errorf("use of closed network connection")} {
		if isTransientAccept(err) {
			t.Errorf("%v classified transient", err)
		}
	}
}
