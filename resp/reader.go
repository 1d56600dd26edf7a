package resp

import (
	"bufio"
	"errors"
	"io"
)

// Reader decodes RESP frames from an underlying stream through an
// internal bufio.Reader. It is not safe for concurrent use; the client
// gives every connection its own Reader.
type Reader struct {
	br *bufio.Reader
	// lineBuf is the slow-path line accumulator: readLine normally
	// returns a view into the bufio buffer (zero allocations), but a line
	// spanning a buffer refill is assembled here and the buffer reused.
	lineBuf []byte
}

// NewReader returns a Reader over r with a default-sized buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// NewReaderSize returns a Reader whose internal buffer has at least size
// bytes.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// ReadCommand reads one client command into cmd: either a multibulk frame
// ("*2\r\n$4\r\nPING\r\n$2\r\nhi\r\n", what every real client sends) or
// an inline command ("PING hi\r\n", for netcat-style debugging). The
// Command's scratch (argument headers and the flat byte arena) is
// recycled across calls, so the steady-state cost is zero allocations per
// command; cmd.Args is valid only until the next ReadCommand on the same
// Command (see the Command aliasing contract). io.EOF is returned
// untouched when the stream ends cleanly between commands.
func (r *Reader) ReadCommand(cmd *Command) error {
	for {
		err := r.readCommandOnce(cmd)
		// An empty multibulk ("*0\r\n") is valid no-op traffic; skip it so
		// callers never see a zero-argument command.
		if err != nil || len(cmd.Args) > 0 {
			return err
		}
	}
}

func (r *Reader) readCommandOnce(cmd *Command) error {
	cmd.reset()
	c, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if c != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return err
		}
		return r.readInline(cmd)
	}
	n, err := r.readInt()
	if err != nil {
		return err
	}
	if n < 0 {
		return protoErrorf("negative multibulk count %d", n)
	}
	if n > maxCommandArgs {
		return protoErrorf("multibulk count %d exceeds limit %d", n, maxCommandArgs)
	}
	// Arguments land in the arena one at a time: a huge declared count
	// with no payload behind it must fail on read, not on allocation.
	for i := int64(0); i < n; i++ {
		if err := r.readBulkArg(cmd); err != nil {
			return err
		}
	}
	cmd.materialize()
	return nil
}

// readBulkArg reads one "$<len>\r\n<bytes>\r\n" command argument into
// cmd's arena. Null bulks are invalid inside commands.
func (r *Reader) readBulkArg(cmd *Command) error {
	c, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if c != '$' {
		return protoErrorf("expected bulk argument ('$'), got %q", c)
	}
	n, err := r.readInt()
	if err != nil {
		return err
	}
	if n < 0 {
		return protoErrorf("negative bulk length %d in command", n)
	}
	if n > maxBulkLen {
		return protoErrorf("bulk length %d exceeds limit %d", n, maxBulkLen)
	}
	if _, err := io.ReadFull(r.br, cmd.grow(int(n))); err != nil {
		return unexpectedEOF(err)
	}
	cmd.ends = append(cmd.ends, len(cmd.arena))
	return r.expectCRLF()
}

// readBulkBody reads n payload bytes plus the trailing CRLF into a fresh
// caller-owned slice (the reply path, where values outlive the read).
func (r *Reader) readBulkBody(n int64) ([]byte, error) {
	if n > maxBulkLen {
		return nil, protoErrorf("bulk length %d exceeds limit %d", n, maxBulkLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	if err := r.expectCRLF(); err != nil {
		return nil, err
	}
	return buf, nil
}

// readInline parses a whitespace-separated inline command line. Tokens
// are copied into the arena exactly once, straight off the line view.
func (r *Reader) readInline(cmd *Command) error {
	line, err := r.readLine(maxInlineLen)
	if err != nil {
		return err
	}
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if j > i {
			cmd.appendArg(line[i:j])
		}
		i = j
	}
	// A blank line is ignored (netcat users hitting enter), like the
	// empty multibulk: the ReadCommand loop reads on.
	cmd.materialize()
	return nil
}

// ReadValue reads one reply value: simple string, error, integer, bulk,
// array (recursively), or nil. It is the client half of the codec; the
// returned Value owns its memory.
func (r *Reader) ReadValue() (Value, error) {
	return r.readValue(0)
}

func (r *Reader) readValue(depth int) (Value, error) {
	if depth > maxDepth {
		return Value{}, protoErrorf("reply nesting exceeds depth %d", maxDepth)
	}
	c, err := r.br.ReadByte()
	if err != nil {
		if depth > 0 {
			return Value{}, unexpectedEOF(err)
		}
		return Value{}, err
	}
	switch c {
	case '+':
		line, err := r.readStatusLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: SimpleString, Str: line}, nil
	case '-':
		line, err := r.readStatusLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: Error, Str: line}, nil
	case ':':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: Integer, Int: n}, nil
	case '$':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: Nil}, nil
		}
		if n < 0 {
			return Value{}, protoErrorf("negative bulk length %d", n)
		}
		body, err := r.readBulkBody(n)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: Bulk, Str: body}, nil
	case '*':
		n, err := r.readArrayLen()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: Nil}, nil
		}
		elems := make([]Value, 0, min(n, 64))
		for i := int64(0); i < n; i++ {
			v, err := r.readValue(depth + 1)
			if err != nil {
				return Value{}, err
			}
			elems = append(elems, v)
		}
		return Value{Kind: Array, Array: elems}, nil
	default:
		return Value{}, protoErrorf("unexpected frame byte %q", c)
	}
}

// ReadIntArray reads one reply as ReadValue does, except that an array
// reply is not built: each of its elements, which must all be integers,
// goes to sink with its index, and the Value returned for the array is
// Value{Kind: Array} with no elements. It decodes a CORE.MGET reply
// straight into the caller's result. The array header is bounded as
// ReadValue bounds it; an element of any other kind is a *ProtocolError,
// because the rest of the array is left unread. A reply that is not an
// array is returned whole, as ReadValue returns it.
func (r *Reader) ReadIntArray(sink func(i int, n int64)) (Value, error) {
	c, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	if c != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return Value{}, err
		}
		return r.readValue(0)
	}
	n, err := r.readArrayLen()
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Kind: Nil}, nil
	}
	for i := range int(n) {
		c, err := r.br.ReadByte()
		if err != nil {
			return Value{}, unexpectedEOF(err)
		}
		if c != ':' {
			return Value{}, protoErrorf("array element %d: frame byte %q, want an integer", i, c)
		}
		v, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		sink(i, v)
	}
	return Value{Kind: Array}, nil
}

// readArrayLen reads a reply array's declared length (its '*' already
// consumed), bounded by maxArrayLen; -1 is the null array.
func (r *Reader) readArrayLen() (int64, error) {
	n, err := r.readInt()
	if err != nil {
		return 0, err
	}
	if n < -1 {
		return 0, protoErrorf("negative array length %d", n)
	}
	if n > maxArrayLen {
		return 0, protoErrorf("array length %d exceeds limit %d", n, maxArrayLen)
	}
	return n, nil
}

// readStatusLine reads a simple-string or error payload into a fresh
// slice (the Value owns it). A stray CR inside the line is rejected: the
// Writer neutralizes CR/LF when encoding these (reply-injection defense),
// so no compliant peer produces one and accepting it would break the
// codec's round-trip property (FuzzRESP).
func (r *Reader) readStatusLine() ([]byte, error) {
	line, err := r.readLine(maxInlineLen)
	if err != nil {
		return nil, err
	}
	for _, c := range line {
		if c == '\r' {
			return nil, protoErrorf("bare CR in status line")
		}
	}
	return append([]byte(nil), line...), nil
}

// readInt reads a CRLF-terminated decimal (the payload of ':', and the
// length of '$' and '*', whose type byte the caller already consumed).
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine(maxIntLineLen)
	if err != nil {
		return 0, err
	}
	n, perr := parseIntLine(line)
	if perr != nil {
		return 0, perr
	}
	return n, nil
}

// maxIntLineLen bounds a decimal integer line — lengths and integers are
// all short; anything longer is an attack or corruption.
const maxIntLineLen = 32

// parseIntLine parses a decimal int64 from a line with the wire format's
// rules (optional sign, digits only, overflow guarded). Shared by the
// streaming Reader and the incremental Parser so the two dialects cannot
// drift.
func parseIntLine(line []byte) (int64, *ProtocolError) {
	if len(line) == 0 {
		return 0, protoErrorf("empty integer")
	}
	i, neg := 0, false
	if line[0] == '-' || line[0] == '+' {
		neg = line[0] == '-'
		i++
		if i == len(line) {
			return 0, protoErrorf("bare sign integer")
		}
	}
	var n int64
	for ; i < len(line); i++ {
		d := line[i]
		if d < '0' || d > '9' {
			return 0, protoErrorf("bad digit %q in integer", d)
		}
		if n > (1<<62)/10 {
			return 0, protoErrorf("integer overflow")
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// readLine reads up to CRLF (tolerating bare LF for inline/netcat use),
// returning the line without its terminator. Lines beyond limit bytes are
// a protocol error — lengths and statuses are all short.
//
// The returned slice is a view into the Reader's buffers, valid only
// until the next read; callers either consume it immediately (integers,
// inline tokens copied into the command arena) or copy it out (status
// lines). The common whole-line-buffered case allocates nothing.
func (r *Reader) readLine(limit int) ([]byte, error) {
	frag, err := r.br.ReadSlice('\n')
	if err == nil {
		if len(frag) > limit+2 {
			return nil, protoErrorf("line exceeds %d bytes", limit)
		}
		return trimLineEnd(frag), nil
	}
	if err != bufio.ErrBufferFull {
		// Over-limit data is a protocol error even when the terminator
		// never arrived — the eager check keeps this in lockstep with the
		// incremental Parser (differentially fuzzed against this Reader).
		if len(frag) > limit+2 {
			return nil, protoErrorf("line exceeds %d bytes", limit)
		}
		return nil, unexpectedEOF(err)
	}
	// Slow path: the line spans a buffer refill; assemble it in lineBuf.
	r.lineBuf = append(r.lineBuf[:0], frag...)
	for {
		if len(r.lineBuf) > limit+2 {
			return nil, protoErrorf("line exceeds %d bytes", limit)
		}
		frag, err = r.br.ReadSlice('\n')
		r.lineBuf = append(r.lineBuf, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			if len(r.lineBuf) > limit+2 {
				return nil, protoErrorf("line exceeds %d bytes", limit)
			}
			return nil, unexpectedEOF(err)
		}
	}
	if len(r.lineBuf) > limit+2 {
		return nil, protoErrorf("line exceeds %d bytes", limit)
	}
	return trimLineEnd(r.lineBuf), nil
}

// trimLineEnd strips the trailing LF and optional CR.
func trimLineEnd(line []byte) []byte {
	line = line[:len(line)-1] // strip LF
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// expectCRLF consumes the terminator after a bulk payload.
func (r *Reader) expectCRLF() error {
	cr, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	lf, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if cr != '\r' || lf != '\n' {
		return protoErrorf("bulk payload not CRLF-terminated")
	}
	return nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can tell a clean close (io.EOF between frames) from a truncated frame.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
