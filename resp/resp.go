// Package resp implements the RESP2 wire protocol (the Redis
// serialization protocol) with zero dependencies beyond the standard
// library: a Reader that parses commands (multibulk and inline forms) and
// replies off a bufio-buffered stream, and a Writer that encodes the five
// RESP2 reply types and client command frames.
//
// The codec is the transport substrate of the networked serving layer
// (package server and package client build on it); it knows nothing about
// k-cores. RESP was chosen because it is trivially incremental — a
// pipelined burst of commands is just frames back to back — which maps
// directly onto the serving pipeline's batch coalescing, and because its
// text framing makes the server driveable from redis-cli and netcat.
//
// # Safety
//
// The protocol carries declared lengths ("$1000000000\r\n…"), so a
// malformed or adversarial peer could ask the codec to allocate
// arbitrarily. Every declared length is bounded before any allocation
// (maxBulkLen for bulk payloads, maxArrayLen for array headers, and
// nested-array depth by maxDepth), mirroring the graph.MaxVertexID
// discipline: corrupt input yields a *ProtocolError, never a panic or an
// unbounded allocation. FuzzRESP pins this down.
package resp

import "fmt"

// Wire-format limits. Out-of-bounds declared lengths fail with a
// *ProtocolError before anything is allocated.
const (
	// maxBulkLen bounds one bulk-string payload (64 MiB, far above any
	// CORE.* frame but small enough that a corrupt length cannot wedge a
	// connection goroutine in a huge allocation).
	maxBulkLen = 64 << 20
	// maxArrayLen bounds one declared reply array. A CORE.MGET sweep
	// reply carries one integer per vertex, so the bound tracks the
	// vertex-universe ceiling.
	maxArrayLen = 1 << 26
	// maxCommandArgs bounds one inbound command's multibulk count —
	// tighter than maxArrayLen (Redis uses the same 1M figure) because a
	// server parses commands from untrusted peers before any
	// application-level validation can run.
	maxCommandArgs = 1 << 20
	// maxInlineLen bounds one inline-command line.
	maxInlineLen = 64 << 10
	// maxDepth bounds nested reply arrays. The k-core protocol never
	// nests deeper than one level; a deeply nested frame is an attack.
	maxDepth = 8
)

// ProtocolError reports malformed wire data. A server closes the
// connection after replying with it; a client treats the connection as
// poisoned.
type ProtocolError struct {
	msg string
}

func protoErrorf(format string, args ...any) *ProtocolError {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

func (e *ProtocolError) Error() string { return "resp: protocol error: " + e.msg }

// Kind discriminates the RESP2 reply types a Value can hold.
type Kind uint8

const (
	// SimpleString is a "+OK\r\n"-style status reply; Value.Str holds it.
	SimpleString Kind = iota
	// Error is a "-ERR …\r\n" reply; Value.Str holds the message.
	Error
	// Integer is a ":123\r\n" reply; Value.Int holds it.
	Integer
	// Bulk is a "$<len>\r\n<bytes>\r\n" reply; Value.Str holds the bytes.
	Bulk
	// Array is a "*<n>\r\n…" reply; Value.Array holds the elements.
	Array
	// Nil is the null bulk ("$-1\r\n") or null array ("*-1\r\n").
	Nil
)

func (k Kind) String() string {
	switch k {
	case SimpleString:
		return "simple-string"
	case Error:
		return "error"
	case Integer:
		return "integer"
	case Bulk:
		return "bulk"
	case Array:
		return "array"
	case Nil:
		return "nil"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is one decoded RESP reply. Which field is meaningful depends on
// Kind; the zero Value is the empty simple string.
type Value struct {
	Kind  Kind
	Str   []byte  // SimpleString, Error, Bulk
	Int   int64   // Integer
	Array []Value // Array
}

// String renders the value for diagnostics (not wire format).
func (v Value) String() string {
	switch v.Kind {
	case SimpleString:
		return string(v.Str)
	case Error:
		return "(error) " + string(v.Str)
	case Integer:
		return fmt.Sprintf("%d", v.Int)
	case Bulk:
		return string(v.Str)
	case Array:
		return fmt.Sprintf("array(%d)", len(v.Array))
	case Nil:
		return "(nil)"
	}
	return "(?)"
}
