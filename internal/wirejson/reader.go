package wirejson

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// ErrDuplicateKey marks a document that repeats an object key (or two keys
// naming the same struct field). encoding/json merges such members; the
// Reader rejects them.
var ErrDuplicateKey = errors.New("duplicate key")

// decodeError reports where and why a document was rejected.
type decodeError struct {
	offset int // byte offset into the input
	err    error
}

func (e *decodeError) Error() string { return fmt.Sprintf("wirejson: offset %d: %v", e.offset, e.err) }

func (e *decodeError) Unwrap() error { return e.err }

// Reader decodes one JSON document from a byte slice in a single pass.
// Decoding is driven by the caller, which knows the expected shape: it asks
// for an object, an array, a string or a number at each position, and a
// mismatch is an error. The first error sticks: every later call is a no-op
// returning zero values, and Unmarshal or Decode returns it, so per-type
// decoders need no error handling of their own.
//
// null is accepted wherever encoding/json accepts it: a scalar read as null
// is its zero value, and an object or array read as null decodes nothing.
type Reader struct {
	data []byte
	pos  int
	err  error
	// depth counts the containers open at the current position.
	depth int
	// scratch holds a string whose escapes had to be rewritten.
	scratch []byte
	// recent caches decoded strings by hash, so a repeated one (the same
	// VNF ID in many chains, placements and schedules) is not allocated
	// again.
	recent [512]string
	// arena is the block new short strings are carved from.
	arena strings.Builder
}

// arenaBlock is the size of the blocks short strings share; a longer
// string gets an allocation of its own.
const arenaBlock = 4096

func newReader(data []byte) *Reader { return &Reader{data: data} }

// Unmarshal decodes data with doc, as json.Unmarshal does: only whitespace
// may follow the document.
func Unmarshal(data []byte, doc func(*Reader)) error {
	r := newReader(data)
	doc(r)
	r.end()
	return r.err
}

// Decode reads src to its end and decodes the first JSON value in it with
// doc. As with a json.Decoder, anything after that value is not examined.
// Decoded values keep no reference to the bytes read.
func Decode(src io.Reader, doc func(*Reader)) error {
	bp := getBuf()
	data, err := readAll(src, *bp)
	if err == nil {
		r := newReader(data)
		doc(r)
		err = r.err
	}
	putBuf(bp, data)
	return err
}

// readAll appends src's remaining bytes to buf, sized up front when src
// reports its length (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(src io.Reader, buf []byte) ([]byte, error) {
	if l, ok := src.(interface{ Len() int }); ok {
		buf = slices.Grow(buf, l.Len()+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Fail records err at the current offset unless an error is already set,
// for a decoder that rejects a well-formed value (a negative count, a
// repeated row).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = &decodeError{offset: r.pos, err: err}
	}
}

func (r *Reader) failf(format string, args ...any) { r.Fail(fmt.Errorf(format, args...)) }

// unexpected reports the byte at the current offset (or the end of input)
// where the grammar wanted something else.
func (r *Reader) unexpected(context string) {
	if r.pos >= len(r.data) {
		r.failf("unexpected end of JSON input")
		return
	}
	r.failf("invalid character %q %s", r.data[r.pos], context)
}

// skipSpace advances past JSON whitespace.
func (r *Reader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it, or 0 at the
// end of input.
func (r *Reader) peek() byte {
	r.skipSpace()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// end requires that only whitespace follows the document.
func (r *Reader) end() {
	if r.err != nil {
		return
	}
	if r.skipSpace(); r.pos < len(r.data) {
		r.unexpected("after top-level value")
	}
}

// Null consumes a JSON null and reports whether there was one.
func (r *Reader) Null() bool {
	if r.err != nil || r.peek() != 'n' {
		return false
	}
	return r.literal("null")
}

// maxDepth is encoding/json's nesting limit: a value nested deeper than
// this many containers is an error.
const maxDepth = 10000

// enter opens a container at the current offset, failing past maxDepth.
func (r *Reader) enter() bool {
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.failf("exceeded max depth")
		return false
	}
	return true
}

// Object decodes a JSON object, calling member once per key with the
// reader positioned at the member's value; member must consume the value.
// The key slice is valid only until the next read. A null object calls
// nothing; callers that must tell null from {} check Null first.
func (r *Reader) Object(member func(key []byte)) {
	if r.Null() || r.err != nil {
		return
	}
	if r.peek() != '{' {
		r.mismatch("object")
		return
	}
	if r.enter() {
		r.members(member)
	}
	r.depth--
}

func (r *Reader) members(member func(key []byte)) {
	if r.peek() == '}' {
		r.pos++
		return
	}
	for {
		if r.peek() != '"' {
			r.unexpected("looking for beginning of object key string")
			return
		}
		key := r.str()
		if r.err != nil {
			return
		}
		if r.peek() != ':' {
			r.unexpected("after object key")
			return
		}
		r.pos++
		member(key)
		if r.err != nil {
			return
		}
		switch r.peek() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return
		default:
			r.unexpected("after object key:value pair")
			return
		}
	}
}

// Array decodes a JSON array, calling elem once per element with the
// reader positioned at it; elem must consume the element. A null array
// calls nothing.
func (r *Reader) Array(elem func()) {
	if r.Null() || r.err != nil {
		return
	}
	if r.peek() != '[' {
		r.mismatch("array")
		return
	}
	if r.enter() {
		r.elements(elem)
	}
	r.depth--
}

func (r *Reader) elements(elem func()) {
	if r.peek() == ']' {
		r.pos++
		return
	}
	for {
		elem()
		if r.err != nil {
			return
		}
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return
		default:
			r.unexpected("after array element")
			return
		}
	}
}

// Slice decodes a JSON array into a new slice, one element per call of
// elem. null decodes to a nil slice and [] to an empty non-nil one, as in
// encoding/json.
func Slice[T any](r *Reader, elem func(*T)) []T {
	// Room for a short array up front: most arrays in the solve documents
	// are VNF chains of at most six entries.
	return SliceN(r, 6, elem)
}

// SliceN is Slice with room for n elements up front, for a caller that
// knows the array's length from elsewhere in the document. n is capped by
// the elements the rest of the input can hold (each takes at least two
// bytes), so a hostile count cannot force a large allocation.
func SliceN[T any](r *Reader, n int, elem func(*T)) []T {
	if r.Null() || r.err != nil {
		return nil
	}
	n = max(0, min(n, (len(r.data)-r.pos)/2))
	out := make([]T, 0, n)
	r.Array(func() {
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
	})
	return out
}

// Map decodes a JSON object into a new map, calling value to decode each
// member into the map under its key. null decodes to a nil map and {} to
// an empty one, as in encoding/json; a repeated key is an error.
func Map[K ~string, V any](r *Reader, value func(m map[K]V, key K)) map[K]V {
	if r.Null() || r.err != nil {
		return nil
	}
	m := make(map[K]V)
	r.Object(func(key []byte) {
		k := K(r.intern(key))
		if _, dup := m[k]; dup {
			r.Fail(fmt.Errorf("%w %q", ErrDuplicateKey, k))
			return
		}
		value(m, k)
	})
	return m
}

// mismatch reports a value of the wrong JSON type at the current offset.
func (r *Reader) mismatch(want string) {
	var got string
	switch c := r.peek(); {
	case c == 0:
		r.unexpected("")
		return
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		r.unexpected("looking for beginning of value")
		return
	}
	r.failf("cannot decode %s into %s", got, want)
}

// Str decodes a JSON string; null decodes to "". (Not String: a Reader
// is no fmt.Stringer.)
func (r *Reader) Str() string {
	if r.Null() || r.err != nil {
		return ""
	}
	if r.peek() != '"' {
		r.mismatch("string")
		return ""
	}
	return r.intern(r.str())
}

// intern returns b as a string, sharing the copy of a recent equal one.
func (r *Reader) intern(b []byte) string {
	h := uint32(2166136261) // FNV-1a: deterministic, so allocation counts are too
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &r.recent[h%uint32(len(r.recent))]
	if *slot == string(b) {
		return *slot
	}
	*slot = r.newString(b)
	return *slot
}

// newString copies b into a string. Short strings are carved from a shared
// block, so a document's many distinct IDs cost a few allocations instead
// of one each: a strings.Builder only appends, so the strings it returned
// earlier never change.
func (r *Reader) newString(b []byte) string {
	if len(b) > arenaBlock/8 {
		return string(b)
	}
	if r.arena.Cap()-r.arena.Len() < len(b) {
		r.arena.Reset()
		r.arena.Grow(arenaBlock)
	}
	start := r.arena.Len()
	r.arena.Write(b)
	return r.arena.String()[start:]
}

// Bool decodes true or false; null decodes to false.
func (r *Reader) Bool() bool {
	if r.Null() || r.err != nil {
		return false
	}
	switch r.peek() {
	case 't':
		return r.literal("true")
	case 'f':
		r.literal("false")
		return false
	}
	r.mismatch("bool")
	return false
}

// literal consumes the literal lit (the reader is at its first byte) and
// reports whether it was there.
func (r *Reader) literal(lit string) bool {
	for i := 0; i < len(lit); i, r.pos = i+1, r.pos+1 {
		if r.pos >= len(r.data) || r.data[r.pos] != lit[i] {
			r.unexpected("in literal " + lit)
			return false
		}
	}
	return true
}

// Raw returns a copy of the next value's bytes, whatever its type (null
// included), checked against JSON's grammar as encoding/json checks a
// json.RawMessage. It returns nil on error.
func (r *Reader) Raw() []byte {
	if r.err != nil {
		return nil
	}
	r.skipSpace()
	start := r.pos
	r.skip()
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), r.data[start:r.pos]...)
}

// skip consumes one value of any type, checking its syntax.
func (r *Reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.Object(func([]byte) { r.skip() })
	case c == '[':
		r.Array(r.skip)
	case c == '"':
		r.str()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.Null()
	case c == '-' || '0' <= c && c <= '9':
		r.number("")
	default:
		r.unexpected("looking for beginning of value")
	}
}

// str consumes a string literal (the reader is at its opening quote) and
// returns its decoded bytes: escapes resolved, each byte of invalid UTF-8
// replaced by U+FFFD, and a lone or mismatched UTF-16 surrogate escape
// replaced by U+FFFD, all as encoding/json decodes strings. The result
// aliases the input or the reader's scratch buffer.
func (r *Reader) str() []byte {
	d := r.data
	start := r.pos + 1
	i := start
	for i < len(d) {
		c := d[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			r.pos = i + 1
			return d[start:i]
		case c == '\\':
			return r.strSlow(start, i)
		case c < ' ':
			r.pos = i
			r.unexpected("in string literal")
			return nil
		default:
			rn, size := utf8.DecodeRune(d[i:])
			if rn == utf8.RuneError && size == 1 {
				return r.strSlow(start, i)
			}
			i += size
		}
	}
	r.pos = i
	r.unexpected("")
	return nil
}

// plain marks the bytes a string literal carries verbatim: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strSlow finishes a string whose bytes from i on need rewriting, copying
// the verbatim prefix d[start:i] into the scratch buffer first.
func (r *Reader) strSlow(start, i int) []byte {
	d := r.data
	b := append(r.scratch[:0], d[start:i]...)
	defer func() { r.scratch = b[:0] }()
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			r.pos = i + 1
			return b
		case c == '\\':
			if i+1 >= len(d) {
				r.pos = i + 1
				r.unexpected("")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rn := hex4(d, i+2)
				if rn < 0 {
					r.pos = i + 2
					r.unexpected("in \\u hexadecimal character escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rn) {
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						if lo := hex4(d, i+2); lo >= 0 {
							if pair := utf16.DecodeRune(rn, lo); pair != unicode.ReplacementChar {
								b = utf8.AppendRune(b, pair)
								i += 6
								continue
							}
						}
					}
					rn = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rn)
				continue
			default:
				r.pos = i + 1
				r.unexpected("in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			r.pos = i
			r.unexpected("in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rn, size := utf8.DecodeRune(d[i:])
			if rn == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, unicode.ReplacementChar)
			} else {
				b = append(b, d[i:i+size]...)
			}
			i += size
		}
	}
	r.pos = i
	r.unexpected("")
	return nil
}

// hex4 decodes the four hex digits at d[i:], or returns -1.
func hex4(d []byte, i int) rune {
	if i+4 > len(d) {
		return -1
	}
	var rn rune
	for _, c := range d[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rn = rn<<4 | rune(c)
	}
	return rn
}

// Fields is the member set of one struct type, for matching keys the way
// encoding/json does: exactly first, then under its case folding.
type Fields struct {
	names  []string
	folded []string
}

// NewFields returns the member set with the given JSON names, in field
// index order (at most 64).
func NewFields(names ...string) *Fields {
	if len(names) > 64 {
		panic("wirejson: more than 64 fields")
	}
	fs := &Fields{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(foldName(nil, []byte(n))))
	}
	return fs
}

// Field returns the index of the member named by key and marks it in seen.
// An unknown key or a member seen before is an error (result -1): the
// codec is always strict.
func (r *Reader) Field(fs *Fields, key []byte, seen *uint64) int {
	idx := -1
	for i, n := range fs.names {
		if string(key) == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		var buf [32]byte
		folded := foldName(buf[:0], key)
		for i, n := range fs.folded {
			if string(folded) == n {
				idx = i
				break
			}
		}
	}
	switch {
	case idx < 0:
		r.failf("unknown field %q", key)
	case *seen&(1<<idx) != 0:
		r.Fail(fmt.Errorf("%w %q", ErrDuplicateKey, key))
		idx = -1
	default:
		*seen |= 1 << idx
	}
	return idx
}

// foldName appends the case-folded form of a key, as encoding/json folds
// names: ASCII letters upper-cased, every other rune replaced by the
// smallest rune of its Unicode simple-fold orbit, so that e.g. the Kelvin
// sign folds like k and the long s like s.
func foldName(dst, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		rn, n := utf8.DecodeRune(in[i:])
		for {
			next := unicode.SimpleFold(rn)
			if next <= rn {
				rn = next
				break
			}
			rn = next
		}
		dst = utf8.AppendRune(dst, rn)
		i += n
	}
	return dst
}
