// Package wirejson holds encoding/json's wire-format rules once, for the
// hand-written codecs of the documents nfvd reads and writes (model.Problem,
// model.Placement, model.Schedule, the core.Solution envelope,
// simulate.Results with its stats.Summary members, and the service's
// request envelopes).
//
// Writer appends exactly the bytes json.Marshal emits for the same values,
// or, in indented mode, exactly what a json.Encoder with SetIndent("", "  ")
// emits, trailing newline included. Reader is a strict single-pass decoder
// over a byte slice that accepts what encoding/json's strict decoder
// (DisallowUnknownFields) accepts and decodes it to the same values, with
// one deliberate difference: a repeated object key is an error instead of
// a merge. encoding/json itself is kept only as the test oracle.
//
// Reader converts a number during the scan that checks its grammar (see
// number.go): up to 19 significant digits go into a uint64 mantissa with a
// decimal exponent, and a float is built from them by Clinger's exact fast
// path or by Eisel–Lemire over a 128-bit power-of-ten table. strconv is the
// fallback for everything else, so every decoded value and every error is
// exactly what strconv gives for the same literal.
package wirejson

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// bufPool recycles document buffers between Encode, Marshal and Decode
// calls: a paper-scale Solution document is ~170 KB, and growing a fresh
// buffer to that size per call dominated allocation.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled bounds the buffers kept for reuse, so one huge document does
// not stay resident.
const maxPooled = 16 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooled {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// Encode writes the document that doc appends to dst in one Write,
// indented and newline-terminated like a json.Encoder with
// SetIndent("", "  ").
func Encode(dst io.Writer, doc func(*Writer)) error {
	return write(dst, &Writer{indent: true}, doc)
}

// Marshal returns the compact document that doc appends, as json.Marshal
// would return it.
func Marshal(doc func(*Writer)) ([]byte, error) {
	bp := getBuf()
	w := &Writer{buf: *bp}
	doc(w)
	b, err := w.finish()
	if err == nil {
		b = append([]byte(nil), b...)
	}
	putBuf(bp, w.buf)
	return b, err
}

// Stream writes the compact document that doc appends to dst, the bytes
// Marshal returns, in chunks of streamChunk bytes and a last shorter one,
// so the document is never held whole. On an encoding error what was
// written is a prefix of the document, which dst should discard.
func Stream(dst io.Writer, doc func(*Writer)) error {
	return write(dst, &Writer{sink: dst}, doc)
}

// write has w append the document that doc appends, in a pooled buffer,
// and writes what the buffer holds at the end to dst.
func write(dst io.Writer, w *Writer, doc func(*Writer)) error {
	bp := getBuf()
	w.buf = *bp
	doc(w)
	b, err := w.finish()
	if err == nil {
		_, err = dst.Write(b)
	}
	putBuf(bp, w.buf)
	return err
}

// streamChunk is the size of the chunks Stream writes.
const streamChunk = 4096

// Writer appends one JSON document to a byte slice. Containers are opened
// and closed explicitly; the writer places separators and, in indented
// mode, the newlines and two-space indentation. The first unencodable value
// (NaN or an infinity) is remembered and returned by Encode or Marshal.
type Writer struct {
	buf    []byte
	indent bool
	depth  int
	// empty marks the innermost open container as having no element yet.
	empty bool
	// afterKey marks that the next value follows a member key directly.
	afterKey bool
	err      error
	// sink, when set, takes every whole chunk the buffer holds at the
	// start of each value (Stream).
	sink io.Writer
}

// finish returns the document, newline-terminated in indented mode as the
// Encoder terminates it, or the first encoding error.
func (w *Writer) finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.indent {
		w.buf = append(w.buf, '\n')
	}
	return w.buf, nil
}

// flush writes the buffer's whole chunks to the sink, one Write each, and
// keeps the rest.
func (w *Writer) flush() {
	b := w.buf
	for ; len(b) >= streamChunk; b = b[streamChunk:] {
		if _, err := w.sink.Write(b[:streamChunk]); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.buf = w.buf[:copy(w.buf, b)]
}

// lineStart is a newline and the indentation of the deepest level written
// in one append; deeper levels append further spaces.
const lineStart = "\n                                "

// newline starts a new line at the current depth (indented mode only).
func (w *Writer) newline() {
	n := 1 + 2*w.depth
	if n <= len(lineStart) {
		w.buf = append(w.buf, lineStart[:n]...)
		return
	}
	w.buf = append(w.buf, lineStart...)
	for n -= len(lineStart); n > 0; n-- {
		w.buf = append(w.buf, ' ')
	}
}

// value emits the separator that precedes a value or key.
func (w *Writer) value() {
	if w.sink != nil && len(w.buf) >= streamChunk {
		w.flush()
	}
	if w.afterKey {
		w.afterKey = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	if w.indent {
		w.newline()
	}
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

func (w *Writer) open(c byte) {
	w.value()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends a container. An empty one stays on one line ({} or []), as
// the Encoder's indenter leaves it.
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty && w.indent {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// Key writes an object member's key; the member's value comes next.
func (w *Writer) Key(k string) {
	w.value()
	w.buf = appendString(w.buf, k)
	w.colon()
}

// colon ends a key; the member's value comes next.
func (w *Writer) colon() {
	if w.indent {
		w.buf = append(w.buf, ':', ' ')
	} else {
		w.buf = append(w.buf, ':')
	}
	w.afterKey = true
}

// Null writes null.
func (w *Writer) Null() {
	w.value()
	w.buf = append(w.buf, "null"...)
}

// String writes s as a JSON string with encoding/json's escaping.
func (w *Writer) String(s string) {
	w.value()
	w.buf = appendString(w.buf, s)
}

// Int writes n.
func (w *Writer) Int(n int) {
	w.value()
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

// Uint64 writes n.
func (w *Writer) Uint64(n uint64) {
	w.value()
	w.buf = strconv.AppendUint(w.buf, n, 10)
}

// Bool writes true or false.
func (w *Writer) Bool(b bool) {
	w.value()
	w.buf = strconv.AppendBool(w.buf, b)
}

// Raw writes v, one JSON value as Reader.Raw returns it, as encoding/json
// writes a json.RawMessage: whitespace dropped (and, in indented mode, the
// value re-indented), and inside strings <, >, &, U+2028 and U+2029
// escaped. Everything else, escapes and invalid UTF-8 included, is copied
// verbatim. v must be valid JSON; for other bytes the output is
// unspecified.
func (w *Writer) Raw(v []byte) {
	nest := 0 // containers of v open; a stray closer is dropped
	for i := 0; i < len(v); {
		switch c := v[i]; c {
		case ' ', '\t', '\n', '\r', ',':
			// The writer places its own separators.
			i++
		case '{', '[':
			w.open(c)
			nest++
			i++
		case '}', ']':
			if nest > 0 {
				w.close(c)
				nest--
			}
			i++
		case ':':
			// The string before it was a key.
			w.colon()
			i++
		case '"':
			w.value()
			i = w.rawString(v, i)
		default:
			// A number or a literal runs to the next delimiter.
			j := i + 1
			for j < len(v) && !delim[v[j]] {
				j++
			}
			w.value()
			w.buf = append(w.buf, v[i:j]...)
			i = j
		}
	}
}

// delim marks the bytes that end a number or literal.
var delim = func() (t [256]bool) {
	for _, c := range " \t\n\r,:]}" {
		t[c] = true
	}
	return t
}()

// rawString copies the string literal starting at v[i], escaping what
// encoding/json's compaction escapes, and returns the offset after it.
func (w *Writer) rawString(v []byte, i int) int {
	b := append(w.buf, '"')
	start := i + 1
	for i = start; i < len(v) && v[i] != '"'; {
		switch c := v[i]; {
		case c == '\\':
			i = min(i+2, len(v))
		case c == '<' || c == '>' || c == '&':
			b = append(b, v[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			i++
			start = i
		case c == 0xE2 && i+2 < len(v) && v[i+1] == 0x80 && v[i+2]&^1 == 0xA8:
			b = append(b, v[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[v[i+2]&0xF])
			i += 3
			start = i
		default:
			i++
		}
	}
	w.buf = append(append(b, v[start:i]...), '"')
	return i + 1
}

// Float writes f in encoding/json's ES6-style format: 'f' notation, or
// 'e' when |f| < 1e-6 or |f| ≥ 1e21, with the exponent's leading zero
// dropped (1e-07 becomes 1e-7). NaN and infinities cannot be encoded.
func (w *Writer) Float(f float64) {
	w.value()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("wirejson: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		b := w.buf
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			w.buf = b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// safe marks the ASCII bytes a string carries unescaped: everything from
// space upward except the quote, the backslash, and the HTML-sensitive
// <, > and &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendString appends s quoted exactly as encoding/json quotes it with
// HTML escaping on: short escapes for \" \\ \b \f \n \r \t, \u00XX for other
// control bytes and <, > and &, \ufffd for each byte of invalid UTF-8, and
// \u2028/\u2029 for the two JavaScript line terminators.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
