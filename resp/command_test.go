package resp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestCommandScratchReuse pins the Command aliasing contract: arg slices
// captured from one ReadCommand are views into scratch that the next
// ReadCommand on the same Command recycles — they are invalidated, not
// silently preserved. A caller that needs an argument beyond dispatch
// must copy it; the server's dispatch loop is written against exactly
// this contract.
func TestCommandScratchReuse(t *testing.T) {
	wire := "*2\r\n$3\r\nfoo\r\n$3\r\nbar\r\n" + "*2\r\n$3\r\nbaz\r\n$3\r\nqux\r\n"
	r := NewReader(strings.NewReader(wire))
	var cmd Command

	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatalf("ReadCommand 1: %v", err)
	}
	// Capture the raw slices (the aliasing hazard) plus their contents.
	captured := append([][]byte(nil), cmd.Args...)
	if string(captured[0]) != "foo" || string(captured[1]) != "bar" {
		t.Fatalf("first command args = %q", captured)
	}

	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatalf("ReadCommand 2: %v", err)
	}
	if string(cmd.Args[0]) != "baz" || string(cmd.Args[1]) != "qux" {
		t.Fatalf("second command args = %q", cmd.Args)
	}
	// The second read recycles the arena, so the captured slices now alias
	// the second command's bytes. Asserting the overwrite (rather than
	// merely not asserting preservation) keeps this test honest: if the
	// implementation ever starts allocating fresh args per command, the
	// zero-alloc design has regressed and this fails loudly.
	if string(captured[0]) != "baz" || string(captured[1]) != "qux" {
		t.Fatalf("captured args = %q, want them invalidated (overwritten by second read)", captured)
	}
}

// TestReadCommandSteadyStateZeroAlloc asserts the codec-layer half of
// the zero-alloc contract: once the Command scratch is warm, reading a
// pipelined run of commands performs no allocations at all.
func TestReadCommandSteadyStateZeroAlloc(t *testing.T) {
	frame := []byte("*3\r\n$8\r\nCORE.GET\r\n$2\r\n42\r\n$4\r\nPING\r\n")
	var burst []byte
	for i := 0; i < 64; i++ {
		burst = append(burst, frame...)
	}
	src := bytes.NewReader(burst)
	r := NewReader(src)
	var cmd Command
	// Warm up: first reads size the arena, ends, and Args headers.
	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	avg := testing.AllocsPerRun(20, func() {
		src.Reset(burst)
		r.br.Reset(src)
		for i := 0; i < 64; i++ {
			if err := r.ReadCommand(&cmd); err != nil {
				t.Fatalf("ReadCommand: %v", err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state ReadCommand allocates %.2f allocs per 64-command burst, want 0", avg)
	}
}

// TestCommandArenaShrinks checks an oversized command doesn't pin its
// arena on the connection forever.
func TestCommandArenaShrinks(t *testing.T) {
	big := strings.Repeat("x", arenaShrinkCap+1)
	wire := "*2\r\n$4\r\nECHO\r\n$" + strconv.Itoa(len(big)) + "\r\n" + big + "\r\n" +
		"*1\r\n$4\r\nPING\r\n"
	r := NewReader(strings.NewReader(wire))
	var cmd Command
	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatalf("big command: %v", err)
	}
	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatalf("small command: %v", err)
	}
	if cap(cmd.arena) > arenaShrinkCap {
		t.Fatalf("arena cap %d still above shrink bound %d after small command", cap(cmd.arena), arenaShrinkCap)
	}
}
