package main

// The process fixture every kcored drill shares: one kcored binary built
// per test binary, a spawn helper that waits for PING and kills the
// process at cleanup, acked churn mirrored into a graph.Graph oracle,
// and a chunked CORE.MGET sweep against expected core numbers.

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/graph"
	"repro/obs"
)

// kcoredBin is the kcored binary TestMain builds; empty under -short,
// where every test that spawns it skips.
var kcoredBin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "kcored-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	kcoredBin = filepath.Join(dir, "kcored")
	if out, err := exec.Command("go", "build", "-o", kcoredBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build kcored: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// skipShort skips a test that spawns kcored processes under -short.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns real kcored processes; run without -short")
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// durable is the flag set of a crash-safe node on dir: every acked write
// is synced to the log before its reply, and a checkpoint rotates the
// log every 400 ops, so a short drill still crosses log rotations.
func durable(dir string) []string {
	return []string{"-dir", dir, "-aof-fsync", "always", "-checkpoint-ops", "400"}
}

// kcored is one spawned server process.
type kcored struct {
	cmd    *exec.Cmd
	exited bool
	err    error
}

// spawn starts kcored on addr with flags, waits until it answers PING,
// and registers a cleanup that kills it.
func spawn(t *testing.T, addr string, flags ...string) *kcored {
	t.Helper()
	cmd := exec.Command(kcoredBin, append([]string{"-addr", addr, "-quiet"}, flags...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start kcored: %v", err)
	}
	k := &kcored{cmd: cmd}
	t.Cleanup(func() { k.stop(syscall.SIGKILL) })
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := client.Dial(addr, client.WithDialTimeout(time.Second))
		if err == nil {
			_, err = c.Do("PING")
			c.Close()
			if err == nil {
				return k
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("kcored on %s never came up: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends sig and waits for the process to exit, returning its exit
// status; after the first call it only returns that status again.
func (k *kcored) stop(sig os.Signal) error {
	if !k.exited {
		k.exited = true
		k.cmd.Process.Signal(sig)
		k.err = k.cmd.Wait()
	}
	return k.err
}

// dial connects to addr and closes the connection at cleanup.
func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, client.WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// coreStats runs CORE.STATS on c and parses the reply, series → value.
func coreStats(t *testing.T, c *client.Conn) map[string]float64 {
	t.Helper()
	text, err := client.String(c.Do("CORE.STATS"))
	if err != nil {
		t.Fatalf("CORE.STATS: %v", err)
	}
	kv, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("CORE.STATS does not parse: %v", err)
	}
	return kv
}

// ackedBursts sends bursts pipelined bursts of up to batch ops on c over
// the ids [0, mirror.N()): inserts of random edges and, one op in eight,
// the removal of a live mirror edge. Each op lands in mirror only once
// its reply arrived, so between bursts mirror is the acked edge set.
func ackedBursts(t *testing.T, c *client.Conn, mirror *graph.Graph, rng *rand.Rand, bursts, batch int) {
	t.Helper()
	n := mirror.N()
	type op struct {
		e      graph.Edge
		remove bool
	}
	ops := make([]op, 0, batch)
	for b := 0; b < bursts; b++ {
		ops = ops[:0]
		for i := 0; i < batch; i++ {
			if rng.Intn(8) == 0 && mirror.M() > 0 {
				for tries := 0; tries < 32; tries++ {
					u := int32(rng.Intn(n))
					if a := mirror.Adj(u); len(a) > 0 {
						ops = append(ops, op{e: graph.Edge{U: u, V: a[rng.Intn(len(a))]}.Norm(), remove: true})
						break
					}
				}
				continue
			}
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				ops = append(ops, op{e: graph.Edge{U: u, V: v}.Norm()})
			}
		}
		for _, o := range ops {
			cmd := "CORE.INSERT"
			if o.remove {
				cmd = "CORE.REMOVE"
			}
			if err := c.Send(cmd, int64(o.e.U), int64(o.e.V)); err != nil {
				t.Fatalf("burst %d: send: %v", b, err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("burst %d: flush: %v", b, err)
		}
		for _, o := range ops {
			if _, err := c.Receive(); err != nil {
				t.Fatalf("burst %d: %v", b, err)
			}
			if o.remove {
				mirror.RemoveEdge(o.e.U, o.e.V)
			} else {
				mirror.AddEdge(o.e.U, o.e.V)
			}
		}
	}
}

// sweep reads every core number c serves, 512 ids per CORE.MGET, and
// reports the first that differs from want; CORE.N must be len(want).
func sweep(c *client.Conn, want []int32) error {
	n, err := client.Int(c.Do("CORE.N"))
	if err != nil {
		return fmt.Errorf("CORE.N: %w", err)
	}
	if int(n) != len(want) {
		return fmt.Errorf("served N = %d, want %d", n, len(want))
	}
	const chunk = 512
	args := make([]any, 0, chunk)
	for lo := 0; lo < len(want); lo += chunk {
		hi := min(lo+chunk, len(want))
		args = args[:0]
		for v := lo; v < hi; v++ {
			args = append(args, int64(v))
		}
		vals, err := client.Ints(c.Do("CORE.MGET", args...))
		if err != nil {
			return fmt.Errorf("CORE.MGET [%d, %d): %w", lo, hi, err)
		}
		if len(vals) != hi-lo {
			return fmt.Errorf("CORE.MGET [%d, %d) returned %d values", lo, hi, len(vals))
		}
		for i, got := range vals {
			if int32(got) != want[lo+i] {
				return fmt.Errorf("served core[%d] = %d, want %d", lo+i, got, want[lo+i])
			}
		}
	}
	return nil
}

// coreCheck runs CORE.CHECK on c and fails the test unless it replies OK.
func coreCheck(t *testing.T, who string, c *client.Conn) {
	t.Helper()
	if s, err := client.String(c.Do("CORE.CHECK")); err != nil || s != "OK" {
		t.Fatalf("CORE.CHECK on %s = %q, %v", who, s, err)
	}
}
