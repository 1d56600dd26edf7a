package resp

import (
	"bytes"
	"errors"
)

// ErrIncomplete reports that the buffer handed to Parser.Parse ends
// mid-frame: the caller should read more bytes from the connection and
// call Parse again with the extended buffer.
var ErrIncomplete = errors.New("resp: incomplete frame")

// Parser is the incremental, zero-copy sibling of Reader.ReadCommand and
// the server's command parser: instead of pulling from a stream, it
// parses commands out of a caller-owned query buffer that the connection
// loop appends socket reads to. Argument slices point straight into that
// buffer — no arena copy — so a parsed Command is valid only until the
// caller reuses or compacts the buffer past the frame. (ReadCommand
// stays as the reference FuzzRESP checks Parser against.)
//
// The buffer passed to Parse must always begin at the start of the
// current (possibly partial) frame, and bytes already handed to a
// previous Parse call must be byte-identical on the retry — the caller
// appends, it does not rewrite. Under that contract the Parser's
// resumable state (offsets relative to the buffer start) survives the
// caller compacting consumed frames off the front, and a command
// trickled in byte by byte is parsed in O(len) total, not O(len²): line
// scanning resumes from a high-water mark and bulk payloads are skipped
// by length, never rescanned.
//
// The zero value is ready to use. A Parser is not safe for concurrent
// use; each connection owns one.
type Parser struct {
	state   int
	pos     int // offset of the structural element being parsed
	scan    int // newline-scan high-water mark within the current line
	nargs   int // declared multibulk argument count
	bulkLen int // declared length of the bulk argument being read
	spans   []int
}

const (
	psStart      = iota // at frame start, type byte not yet classified
	psArgHeader         // expecting "$<len>" for argument len(spans)/2
	psArgPayload        // expecting bulkLen payload bytes plus CRLF
)

// Parse decodes the next command from buf into cmd, returning the number
// of bytes consumed. Empty frames ("*0\r\n", blank inline lines) are
// consumed and skipped, exactly like Reader.ReadCommand. On
// ErrIncomplete the returned count covers only those skipped frames —
// the partial frame stays unconsumed and Parse resumes inside it next
// call. Any other error is a *ProtocolError and poisons the connection;
// the Parser must not be reused on that stream.
func (p *Parser) Parse(buf []byte, cmd *Command) (int, error) {
	base := 0
	for {
		n, err := p.parseOne(buf[base:], cmd)
		if err != nil {
			return base, err
		}
		base += n
		p.resetState()
		if len(cmd.Args) > 0 {
			return base, nil
		}
	}
}

func (p *Parser) resetState() {
	p.state = psStart
	p.pos, p.scan = 0, 0
	p.spans = p.spans[:0]
}

func (p *Parser) parseOne(buf []byte, cmd *Command) (int, error) {
	if p.state == psStart {
		if len(buf) == 0 {
			return 0, ErrIncomplete
		}
		if buf[0] != '*' {
			return p.parseInline(buf, cmd)
		}
		line, next, err := p.line(buf, 1, maxIntLineLen)
		if err != nil {
			return 0, err
		}
		n, perr := parseIntLine(line)
		if perr != nil {
			return 0, perr
		}
		if n < 0 {
			return 0, protoErrorf("negative multibulk count %d", n)
		}
		if n > maxCommandArgs {
			return 0, protoErrorf("multibulk count %d exceeds limit %d", n, maxCommandArgs)
		}
		p.nargs = int(n)
		p.pos, p.scan = next, next
		p.state = psArgHeader
	}
	for len(p.spans) < 2*p.nargs {
		switch p.state {
		case psArgHeader:
			if p.pos >= len(buf) {
				return 0, ErrIncomplete
			}
			if buf[p.pos] != '$' {
				return 0, protoErrorf("expected bulk argument ('$'), got %q", buf[p.pos])
			}
			line, next, err := p.line(buf, p.pos+1, maxIntLineLen)
			if err != nil {
				return 0, err
			}
			n, perr := parseIntLine(line)
			if perr != nil {
				return 0, perr
			}
			if n < 0 {
				return 0, protoErrorf("negative bulk length %d in command", n)
			}
			if n > maxBulkLen {
				return 0, protoErrorf("bulk length %d exceeds limit %d", n, maxBulkLen)
			}
			p.bulkLen = int(n)
			p.pos, p.scan = next, next
			p.state = psArgPayload
		case psArgPayload:
			end := p.pos + p.bulkLen
			if end+2 > len(buf) {
				return 0, ErrIncomplete
			}
			if buf[end] != '\r' || buf[end+1] != '\n' {
				return 0, protoErrorf("bulk payload not CRLF-terminated")
			}
			p.spans = append(p.spans, p.pos, end)
			p.pos, p.scan = end+2, end+2
			p.state = psArgHeader
		}
	}
	cmd.reset()
	for i := 0; i < len(p.spans); i += 2 {
		s, e := p.spans[i], p.spans[i+1]
		cmd.Args = append(cmd.Args, buf[s:e:e])
	}
	return p.pos, nil
}

// parseInline handles a whole inline command line; tokens are zero-copy
// views into buf, mirroring Reader.readInline's splitting rules.
func (p *Parser) parseInline(buf []byte, cmd *Command) (int, error) {
	line, next, err := p.line(buf, 0, maxInlineLen)
	if err != nil {
		return 0, err
	}
	cmd.reset()
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if j > i {
			cmd.Args = append(cmd.Args, line[i:j:j])
		}
		i = j
	}
	return next, nil
}

// line scans for the newline terminating the line that starts at start,
// resuming from the scan high-water mark. It returns the line content
// (terminator stripped, trailing CR removed — the same bare-LF tolerance
// as Reader.readLine) and the offset just past the terminator. Limit
// semantics match readLine: total length including terminator beyond
// limit+2 is a protocol error, applied eagerly to unterminated data so a
// trickling peer cannot buffer unboundedly.
func (p *Parser) line(buf []byte, start, limit int) ([]byte, int, error) {
	if p.scan < start {
		p.scan = start
	}
	idx := bytes.IndexByte(buf[p.scan:], '\n')
	if idx < 0 {
		p.scan = len(buf)
		if len(buf)-start > limit+2 {
			return nil, 0, protoErrorf("line exceeds %d bytes", limit)
		}
		return nil, 0, ErrIncomplete
	}
	nl := p.scan + idx
	if nl+1-start > limit+2 {
		return nil, 0, protoErrorf("line exceeds %d bytes", limit)
	}
	line := buf[start:nl]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nl + 1, nil
}
