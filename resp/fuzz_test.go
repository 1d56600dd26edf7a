package resp

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// FuzzRESP feeds arbitrary bytes to both halves of the codec. Properties:
//
//   - No input may panic or allocate unboundedly (the engine's OOM-kill
//     is the oracle for the latter): malformed frames must surface as
//     *ProtocolError or a truncation error, mirroring how
//     graph.MaxVertexID bounds data-driven graph construction.
//   - Whatever the Reader accepts must round-trip: re-encoding the parsed
//     commands/values and re-reading them yields the same result. This
//     pins reader and writer to the same dialect, so the server and the
//     Go client can never drift apart.
//
// The seed corpus covers the interesting failure shapes: truncated
// frames, huge declared lengths, negative counts, nesting bombs, and
// valid pipelined traffic.
func FuzzRESP(f *testing.F) {
	// Valid traffic, pipelined.
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*3\r\n$8\r\nCORE.GET\r\n$2\r\n42\r\n$1\r\n7\r\n"))
	f.Add([]byte("PING\r\nCORE.MGET 1 2 3\r\n"))
	// Replies, including nested arrays and nulls.
	f.Add([]byte("+OK\r\n-ERR boom\r\n:-42\r\n$5\r\nhello\r\n$-1\r\n*-1\r\n"))
	f.Add([]byte("*3\r\n:1\r\n*1\r\n$1\r\nx\r\n$0\r\n\r\n"))
	// Truncated frames.
	f.Add([]byte("*2\r\n$4\r\nPING\r\n"))
	f.Add([]byte("$100\r\nshort"))
	f.Add([]byte("*1\r\n$4\r\nPI"))
	// Huge declared lengths (within and beyond the limits).
	f.Add([]byte("*10000000\r\n"))
	f.Add([]byte("$999999999999\r\n"))
	f.Add([]byte("*99999999999999999999\r\n"))
	// Negative counts and malformed integers.
	f.Add([]byte("*-2\r\n"))
	f.Add([]byte("$-7\r\nx\r\n"))
	f.Add([]byte(":12x\r\n"))
	f.Add([]byte("*+3\r\n"))
	// Nesting bomb.
	f.Add([]byte(strings.Repeat("*1\r\n", 40) + ":1\r\n"))
	// Missing terminators and stray bytes.
	f.Add([]byte("*1\r\n$2\r\nabX\r\n"))
	f.Add([]byte{0, '*', 0xff, '\r', '\n'})
	// Inline commands: whitespace runs, tabs, bare-LF termination, blank
	// lines between frames, and an over-limit unterminated line.
	f.Add([]byte("  CORE.GET \t 7 \r\n\r\nQUIT\n"))
	f.Add([]byte("PING" + strings.Repeat(" x", 300) + "\r\n"))
	f.Add([]byte(strings.Repeat("z", maxInlineLen+3)))
	// Scratch-boundary cases for the arena path: an arg exactly at the
	// arena's initial growth size (256), one straddling it, and a frame at
	// the argument-count limit shape (many tiny args in one command).
	f.Add([]byte("*2\r\n$4\r\nECHO\r\n$256\r\n" + strings.Repeat("a", 256) + "\r\n"))
	f.Add([]byte("*2\r\n$255\r\n" + strings.Repeat("b", 255) + "\r\n$2\r\ncd\r\n"))
	f.Add([]byte(argsBomb(64)))
	f.Add([]byte("*1048577\r\n$1\r\nx\r\n")) // maxCommandArgs+1 declared

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCommands(t, data)
		fuzzValues(t, data)
		diffParserReader(t, data)
		diffIntArrayValue(t, data)
	})
}

// diffIntArrayValue holds ReadIntArray to ReadValue on the same replies:
// an array of integers hands sink exactly ReadValue's elements, an array
// holding anything else is an error, any other reply is the same Value,
// and a read ReadValue rejects is rejected too.
func diffIntArrayValue(t *testing.T, data []byte) {
	rv := NewReader(bytes.NewReader(data))
	ri := NewReader(bytes.NewReader(data))
	for range 128 {
		want, werr := rv.ReadValue()
		var got []int64
		v, err := ri.ReadIntArray(func(i int, n int64) {
			if i != len(got) {
				t.Fatalf("sink got index %d after %d elements", i, len(got))
			}
			got = append(got, n)
		})
		if werr != nil {
			if err == nil {
				t.Fatalf("ReadValue failed (%v), ReadIntArray read %v", werr, v)
			}
			checkReadErr(t, err)
			return
		}
		if want.Kind != Array {
			if err != nil || !valueEqual(v, want) {
				t.Fatalf("ReadIntArray = %v, %v; ReadValue %v", v, err, want)
			}
			continue
		}
		allInts := true
		for _, e := range want.Array {
			allInts = allInts && e.Kind == Integer
		}
		if !allInts {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("array %v with a non-integer element: ReadIntArray err %v", want, err)
			}
			return
		}
		if err != nil || v.Kind != Array || len(got) != len(want.Array) {
			t.Fatalf("ReadIntArray = %v, %v with %d elements; ReadValue %v", v, err, len(got), want)
		}
		for i, e := range want.Array {
			if got[i] != e.Int {
				t.Fatalf("element %d: sink got %d, ReadValue %d", i, got[i], e.Int)
			}
		}
	}
}

// argsBomb builds one command of n one-byte args — the many-args shape
// that stresses the ends/Args bookkeeping rather than the arena.
func argsBomb(n int) string {
	var sb strings.Builder
	sb.WriteString("*")
	sb.WriteString(strconv.Itoa(n))
	sb.WriteString("\r\n")
	for i := 0; i < n; i++ {
		sb.WriteString("$1\r\nq\r\n")
	}
	return sb.String()
}

// fuzzCommands drives the server-side half: parse a pipelined run of
// commands, re-encode, re-parse, compare.
func fuzzCommands(t *testing.T, data []byte) {
	r := NewReader(bytes.NewReader(data))
	var cmd Command
	var parsed [][][]byte
	for len(parsed) < 128 {
		err := r.ReadCommand(&cmd)
		if err != nil {
			checkReadErr(t, err)
			break
		}
		if len(cmd.Args) == 0 {
			t.Fatalf("ReadCommand returned no args without error")
		}
		parsed = append(parsed, copyArgs(&cmd))
	}
	if len(parsed) == 0 {
		return
	}
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for _, args := range parsed {
		if err := w.WriteCommand(string(args[0]), args[1:]...); err != nil {
			t.Fatalf("WriteCommand(%q): %v", args, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r2 := NewReader(&wire)
	var cmd2 Command
	for i, want := range parsed {
		if err := r2.ReadCommand(&cmd2); err != nil {
			t.Fatalf("re-read command %d: %v", i, err)
		}
		got := cmd2.Args
		if len(got) != len(want) {
			t.Fatalf("command %d: %d args after round-trip, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("command %d arg %d: %q != %q", i, j, got[j], want[j])
			}
		}
	}
}

// fuzzValues drives the client-side half the same way.
func fuzzValues(t *testing.T, data []byte) {
	r := NewReader(bytes.NewReader(data))
	var parsed []Value
	for len(parsed) < 128 {
		v, err := r.ReadValue()
		if err != nil {
			checkReadErr(t, err)
			break
		}
		parsed = append(parsed, v)
	}
	if len(parsed) == 0 {
		return
	}
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for _, v := range parsed {
		if err := w.WriteValue(v); err != nil {
			t.Fatalf("WriteValue(%v): %v", v, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r2 := NewReader(&wire)
	for i, want := range parsed {
		got, err := r2.ReadValue()
		if err != nil {
			t.Fatalf("re-read value %d: %v", i, err)
		}
		if !valueEqual(got, want) {
			t.Fatalf("value %d: %v != %v after round-trip", i, got, want)
		}
	}
}

// checkReadErr asserts a read failure is one of the contracted kinds.
func checkReadErr(t *testing.T, err error) {
	var pe *ProtocolError
	if errors.As(err, &pe) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return
	}
	t.Fatalf("unexpected error kind: %v", err)
}
