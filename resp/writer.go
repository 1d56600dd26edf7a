package resp

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
)

// Writer encodes RESP frames onto an underlying stream through an
// internal bufio.Writer. Nothing reaches the wire until Flush — the
// server batches a pipelined burst's replies into one syscall, the
// client batches Send-ed commands the same way. Not safe for concurrent
// use.
type Writer struct {
	bw  *bufio.Writer
	scr [32]byte // integer formatting scratch
}

// NewWriter returns a Writer over w with a default-sized buffer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// NewWriterSize returns a Writer whose internal buffer has at least size
// bytes.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// Flush writes everything buffered to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteSimple writes a "+<s>\r\n" status reply. CR/LF in s would let the
// payload forge extra frames (reply injection), so both are replaced
// with spaces.
func (w *Writer) WriteSimple(s string) error {
	w.bw.WriteByte('+')
	w.writeLineSafe(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteError writes a "-<msg>\r\n" error reply; by convention msg starts
// with an uppercase code ("ERR …"). Error messages routinely echo
// untrusted client bytes, so CR/LF are replaced with spaces — otherwise
// one malformed argument could smuggle a forged reply frame into the
// stream and desynchronize every later reply on the connection.
func (w *Writer) WriteError(msg string) error {
	w.bw.WriteByte('-')
	w.writeLineSafe(msg)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteErrorBytes is WriteError for a message already assembled as
// bytes (the server's per-connection error scratch), avoiding the
// string conversion. The same CR/LF neutralization applies.
func (w *Writer) WriteErrorBytes(msg []byte) error {
	w.bw.WriteByte('-')
	if bytes.IndexByte(msg, '\r') < 0 && bytes.IndexByte(msg, '\n') < 0 {
		w.bw.Write(msg)
	} else {
		for _, c := range msg {
			if c == '\r' || c == '\n' {
				c = ' '
			}
			w.bw.WriteByte(c)
		}
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// writeLineSafe writes s with frame-terminator bytes neutralized. The
// common all-clean case is one WriteString.
func (w *Writer) writeLineSafe(s string) {
	if !strings.ContainsAny(s, "\r\n") {
		w.bw.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		w.bw.WriteByte(c)
	}
}

// WriteOK writes the interned "+OK\r\n" reply.
func (w *Writer) WriteOK() error {
	_, err := w.bw.Write(okReply)
	return err
}

// WritePong writes the interned "+PONG\r\n" reply.
func (w *Writer) WritePong() error {
	_, err := w.bw.Write(pongReply)
	return err
}

// WriteInt writes a ":<n>\r\n" integer reply. Small non-negative values
// — the overwhelming majority of coreness replies — come from the
// interned table and skip formatting entirely.
func (w *Writer) WriteInt(n int64) error {
	if 0 <= n && n < smallIntCacheSize {
		_, err := w.bw.Write(intReplies[n])
		return err
	}
	w.bw.WriteByte(':')
	return w.writeIntLine(n)
}

// WriteBulk writes a "$<len>\r\n<b>\r\n" bulk reply.
func (w *Writer) WriteBulk(b []byte) error {
	w.bw.WriteByte('$')
	w.writeIntLine(int64(len(b)))
	w.bw.Write(b)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteBulkString is WriteBulk for a string payload, without the []byte
// conversion allocating on the caller.
func (w *Writer) WriteBulkString(s string) error {
	w.bw.WriteByte('$')
	w.writeIntLine(int64(len(s)))
	w.bw.WriteString(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteArrayHeader writes "*<n>\r\n"; the caller then writes n elements.
func (w *Writer) WriteArrayHeader(n int) error {
	w.bw.WriteByte('*')
	return w.writeIntLine(int64(n))
}

// WriteCommand writes one multibulk command frame — the client-side
// encoding of name plus args, each as a bulk string.
func (w *Writer) WriteCommand(name string, args ...[]byte) error {
	w.WriteArrayHeader(1 + len(args))
	w.WriteBulkString(name)
	var err error
	for _, a := range args {
		err = w.WriteBulk(a)
	}
	return err
}

func (w *Writer) writeIntLine(n int64) error {
	w.bw.Write(strconv.AppendInt(w.scr[:0], n, 10))
	_, err := w.bw.WriteString("\r\n")
	return err
}
