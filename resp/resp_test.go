package resp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// copyArgs deep-copies cmd.Args — the scratch is recycled by the next
// ReadCommand/Parse, so tests that retain commands must copy them out.
func copyArgs(cmd *Command) [][]byte {
	out := make([][]byte, len(cmd.Args))
	for i, a := range cmd.Args {
		out[i] = append([]byte(nil), a...)
	}
	return out
}

func readAllCommands(t *testing.T, wire string) [][][]byte {
	t.Helper()
	r := NewReader(strings.NewReader(wire))
	var cmd Command
	var cmds [][][]byte
	for {
		err := r.ReadCommand(&cmd)
		if err == io.EOF {
			return cmds
		}
		if err != nil {
			t.Fatalf("ReadCommand: %v", err)
		}
		cmds = append(cmds, copyArgs(&cmd))
	}
}

func TestReadCommandMultibulk(t *testing.T) {
	cmds := readAllCommands(t, "*3\r\n$8\r\nCORE.GET\r\n$2\r\n42\r\n$0\r\n\r\n")
	if len(cmds) != 1 {
		t.Fatalf("got %d commands, want 1", len(cmds))
	}
	want := []string{"CORE.GET", "42", ""}
	for i, w := range want {
		if string(cmds[0][i]) != w {
			t.Fatalf("arg %d = %q, want %q", i, cmds[0][i], w)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds := readAllCommands(t, "PING\r\n  CORE.GET   7 \r\nQUIT\n")
	if len(cmds) != 3 {
		t.Fatalf("got %d commands, want 3", len(cmds))
	}
	if string(cmds[1][0]) != "CORE.GET" || string(cmds[1][1]) != "7" {
		t.Fatalf("inline args = %q", cmds[1])
	}
}

func TestEmptyFramesAreSkipped(t *testing.T) {
	cmds := readAllCommands(t, "\r\n*0\r\n\nPING\r\n*0\r\n")
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("got %v, want just PING", cmds)
	}
}

func TestReadCommandPipelined(t *testing.T) {
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for i := 0; i < 10; i++ {
		w.WriteCommand("PING")
	}
	w.Flush()
	cmds := readAllCommands(t, wire.String())
	if len(cmds) != 10 {
		t.Fatalf("got %d commands, want 10", len(cmds))
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"*-2\r\n",                          // negative multibulk count
		"*1\r\n$-5\r\n",                    // negative bulk length in command
		"*1\r\n:5\r\n",                     // non-bulk argument
		"*1\r\n$3\r\nab\r\n",               // payload shorter than declared
		"*1\r\n$2\r\nabcd",                 // missing CRLF after payload
		"*x\r\n",                           // non-numeric count
		"*1\r\n$999999999999999999999\r\n", // overflowing length
		"*1\r\n$70000000\r\n",              // bulk beyond maxBulkLen
		"*99999999999\r\n",                 // count beyond maxArrayLen
	}
	for _, wire := range cases {
		r := NewReader(strings.NewReader(wire))
		var cmd Command
		err := r.ReadCommand(&cmd)
		var pe *ProtocolError
		if !errors.As(err, &pe) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("wire %q: err = %v, want protocol error or unexpected EOF", wire, err)
		}
	}
}

func TestTruncatedCommandIsUnexpectedEOF(t *testing.T) {
	// A clean close between frames is io.EOF; a close mid-frame must be
	// distinguishable so the server can log it as a protocol failure.
	for _, wire := range []string{"*2\r\n$4\r\nPING\r\n", "*1\r\n$4\r\nPI", "*1\r\n"} {
		r := NewReader(strings.NewReader(wire))
		var cmd Command
		if err := r.ReadCommand(&cmd); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("wire %q: err = %v, want io.ErrUnexpectedEOF", wire, err)
		}
	}
}

func TestErrorReplyInjectionNeutralized(t *testing.T) {
	// Error (and status) payloads routinely echo untrusted client bytes;
	// embedded CR/LF must not be able to forge extra reply frames.
	var wire bytes.Buffer
	w := NewWriter(&wire)
	w.WriteError("ERR bad arg '1\r\n:42'")
	w.WriteSimple("sneaky\r\n+OK")
	w.Flush()
	r := NewReader(&wire)
	v, err := r.ReadValue()
	if err != nil || v.Kind != Error || string(v.Str) != "ERR bad arg '1  :42'" {
		t.Fatalf("error reply = %v, %v", v, err)
	}
	v, err = r.ReadValue()
	if err != nil || v.Kind != SimpleString || string(v.Str) != "sneaky  +OK" {
		t.Fatalf("simple reply = %v, %v", v, err)
	}
	if _, err := r.ReadValue(); err != io.EOF {
		t.Fatalf("forged frame survived: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		{Kind: SimpleString, Str: []byte("OK")},
		{Kind: Error, Str: []byte("ERR boom")},
		{Kind: Integer, Int: -42},
		{Kind: Bulk, Str: []byte("hello\r\nworld")}, // payload may contain CRLF
		{Kind: Bulk, Str: []byte{}},
		{Kind: Nil},
		{Kind: Array, Array: []Value{
			{Kind: Integer, Int: 1},
			{Kind: Array, Array: []Value{{Kind: Bulk, Str: []byte("x")}}},
			{Kind: Nil},
		}},
		{Kind: Array, Array: []Value{}},
	}
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for _, v := range vals {
		if err := w.WriteValue(v); err != nil {
			t.Fatalf("WriteValue(%v): %v", v, err)
		}
	}
	w.Flush()
	r := NewReader(&wire)
	for i, want := range vals {
		got, err := r.ReadValue()
		if err != nil {
			t.Fatalf("ReadValue %d: %v", i, err)
		}
		if !valueEqual(got, want) {
			t.Fatalf("value %d: got %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadValue(); err != io.EOF {
		t.Fatalf("trailing ReadValue err = %v, want io.EOF", err)
	}
}

func TestReadValueMalformed(t *testing.T) {
	cases := []string{
		"?\r\n",        // unknown type byte
		":12x\r\n",     // bad digit
		"$-2\r\n",      // negative non-null bulk
		"*-2\r\n",      // negative non-null array
		"*2\r\n:1\r\n", // truncated array
		strings.Repeat("*1\r\n", maxDepth+2) + ":1\r\n", // nesting bomb
	}
	for _, wire := range cases {
		r := NewReader(strings.NewReader(wire))
		_, err := r.ReadValue()
		var pe *ProtocolError
		if !errors.As(err, &pe) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("wire %q: err = %v, want protocol error or unexpected EOF", wire, err)
		}
	}
}

func TestHugeDeclaredLengthDoesNotAllocate(t *testing.T) {
	// A declared multibulk count within the limit but with no payload must
	// fail from missing data without allocating count-many slots up front.
	r := NewReader(strings.NewReader("*1000000\r\n"))
	var cmd Command
	if err := r.ReadCommand(&cmd); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Beyond maxCommandArgs the count itself is the protocol error.
	r = NewReader(strings.NewReader("*10000000\r\n"))
	var pe *ProtocolError
	if err := r.ReadCommand(&cmd); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want protocol error", err)
	}
}

func valueEqual(a, b Value) bool {
	if a.Kind != b.Kind || a.Int != b.Int || !bytes.Equal(a.Str, b.Str) || len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !valueEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

// nullReply is the null bulk reply.
var nullReply = []byte("$-1\r\n")

// WriteNull writes the interned null bulk reply "$-1\r\n".
func (w *Writer) WriteNull() error {
	_, err := w.bw.Write(nullReply)
	return err
}

// WriteValue writes v in wire format — the inverse of Reader.ReadValue,
// for the tests and the fuzzer to round-trip replies.
func (w *Writer) WriteValue(v Value) error {
	switch v.Kind {
	case SimpleString:
		return w.WriteSimple(string(v.Str))
	case Error:
		return w.WriteError(string(v.Str))
	case Integer:
		return w.WriteInt(v.Int)
	case Bulk:
		return w.WriteBulk(v.Str)
	case Array:
		w.WriteArrayHeader(len(v.Array))
		var err error
		for _, e := range v.Array {
			err = w.WriteValue(e)
		}
		return err
	case Nil:
		return w.WriteNull()
	}
	return protoErrorf("cannot encode Kind %v", v.Kind)
}
