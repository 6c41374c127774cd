// Package jsonscan is the strict pull-scanner under the two hand-written
// decoders of stored bytes: store's object decoder (the frames of a
// checkpoint, the puts of a log record) and wal's record envelope. It reads
// compact JSON exactly as encoding/json writes it — no whitespace, object
// keys without escapes, non-empty arrays — and declines everything else, so
// that its caller can run encoding/json on the whole document instead: a
// scan that succeeds has produced what json.Unmarshal would have, and one
// that does not has produced nothing anybody keeps.
//
// Every method reports failure as ok == false and leaves the scanner in no
// particular state; the caller abandons the attempt.
//
// AppendString is the other direction: the string literal json.Marshal
// writes, for the hand-written encoders of the same bytes.
package jsonscan

import (
	"bytes"
	"time"
	"unicode/utf8"
)

// Scanner is a cursor over one JSON document.
type Scanner struct {
	data []byte
	pos  int
	buf  []byte // where a literal with escapes is unescaped
}

// Fields remembers which members of one object have been decoded, a bit
// each, for the decoder to decline a key that comes twice: encoding/json
// lets the last one win, or merges them.
type Fields uint32

// First marks bit and reports whether it was unmarked before.
func (f *Fields) First(bit Fields) bool {
	first := *f&bit == 0
	*f |= bit
	return first
}

// New returns a scanner at the start of data, which it never writes to.
func New(data []byte) Scanner { return Scanner{data: data} }

// AtEnd reports whether every byte has been consumed.
func (s *Scanner) AtEnd() bool { return s.pos == len(s.data) }

// peek returns the next byte without consuming it, or 0 at the end.
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// Lit consumes lit if the input continues with it.
func (s *Scanner) Lit(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Member moves to the next member of the object the cursor is inside — the
// first one when first is set, directly after the opening brace — and
// returns its key with the cursor on its value; done reports the closing
// brace instead. The key aliases the input: switch on string(key). A key
// holding an escape is declined, as encoding/json never writes one for a
// Go field name.
func (s *Scanner) Member(first bool) (key []byte, done, ok bool) {
	if s.Lit("}") {
		return nil, true, true
	}
	if !first && !s.Lit(",") {
		return nil, false, false
	}
	if !s.Lit(`"`) {
		return nil, false, false
	}
	n := bytes.IndexByte(s.data[s.pos:], '"')
	if n < 0 || bytes.IndexByte(s.data[s.pos:s.pos+n], '\\') >= 0 {
		return nil, false, false
	}
	key = s.data[s.pos : s.pos+n]
	s.pos += n + 1
	return key, false, s.Lit(":")
}

// Elem moves to the next element of the array the cursor is inside, as
// Member does for an object. An empty array is declined: encoding/json
// writes null for a nil slice, and an empty one decodes to a value that
// differs from nil.
func (s *Scanner) Elem(first bool) (done, ok bool) {
	if first {
		return false, s.peek() != ']'
	}
	if s.Lit("]") {
		return true, true
	}
	return false, s.Lit(",")
}

// Text consumes a string literal and returns its unescaped bytes, valid
// until the next call: they alias the input or the scanner's buffer.
// Accepted are the literals that decode without a substitution — valid
// UTF-8, no raw control byte, the two-character escapes and \uXXXX of
// anything but a surrogate half (which covers the \u003c, \u003e, \u0026,
// \u2028 and \u2029 encoding/json writes for <, >, & and the two line
// separators).
func (s *Scanner) Text() ([]byte, bool) {
	if !s.Lit(`"`) {
		return nil, false
	}
	start := s.pos
	plain := true // neither an escape nor a byte outside ASCII so far
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			if plain {
				return s.data[start:i], true
			}
			return s.unescape(s.data[start:i])
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the literal
		case c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false
}

// unescape resolves the escapes of a literal's body into the buffer and
// checks the outcome is UTF-8, which it is unless a raw byte was not.
func (s *Scanner) unescape(lit []byte) ([]byte, bool) {
	out := s.buf[:0]
	for len(lit) > 0 {
		n := bytes.IndexByte(lit, '\\')
		if n < 0 {
			out = append(out, lit...)
			break
		}
		out = append(out, lit[:n]...)
		if n+1 >= len(lit) {
			return nil, false
		}
		c := lit[n+1]
		lit = lit[n+2:]
		switch c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if len(lit) < 4 {
				return nil, false
			}
			var r rune
			for _, h := range lit[:4] {
				switch {
				case '0' <= h && h <= '9':
					r = r<<4 | rune(h-'0')
				case 'a' <= h && h <= 'f':
					r = r<<4 | rune(h-'a'+10)
				case 'A' <= h && h <= 'F':
					r = r<<4 | rune(h-'A'+10)
				default:
					return nil, false
				}
			}
			if 0xD800 <= r && r <= 0xDFFF {
				return nil, false
			}
			out = utf8.AppendRune(out, r)
			lit = lit[4:]
		default:
			return nil, false
		}
	}
	s.buf = out
	return out, utf8.Valid(out)
}

// String consumes a string literal and returns it as a string of its own —
// or, when it equals one of same, that string, so that a value the caller
// already holds is not allocated a second time.
func (s *Scanner) String(same ...string) (string, bool) {
	b, ok := s.Text()
	if !ok {
		return "", false
	}
	for _, v := range same {
		if string(b) == v {
			return v, true
		}
	}
	return string(b), true
}

// Time consumes a string literal and decodes it as json.Unmarshal decodes a
// time.Time, which hands the literal, quotes and escapes included, to
// (*time.Time).UnmarshalJSON. Only a literal of ASCII with no control byte
// and no escape is accepted, so that the bytes handed over are the text
// itself.
func (s *Scanner) Time(t *time.Time) bool {
	start := s.pos
	if !s.Lit(`"`) {
		return false
	}
	for i := s.pos; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return t.UnmarshalJSON(s.data[start:s.pos]) == nil
		case c == '\\', c < 0x20, c >= utf8.RuneSelf:
			return false
		}
	}
	return false
}

// Strings consumes a non-empty array of string literals.
func (s *Scanner) Strings() ([]string, bool) {
	if !s.Lit("[") {
		return nil, false
	}
	var out []string
	for first := true; ; first = false {
		if done, ok := s.Elem(first); done || !ok {
			return out, ok
		}
		v, ok := s.String()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
}

// Span consumes the array or object the cursor is on and returns its bytes,
// aliasing the input, for a decoder that validates them itself: only the
// brackets are counted, outside string literals, so the span of malformed
// input is arbitrary but never past the end.
func (s *Scanner) Span() ([]byte, bool) {
	if c := s.peek(); c != '[' && c != '{' {
		return nil, false
	}
	depth := 0
	for i := s.pos; i < len(s.data); i++ {
		switch s.data[i] {
		case '"':
			for i++; i < len(s.data) && s.data[i] != '"'; i++ {
				if s.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				span := s.data[s.pos : i+1]
				s.pos = i + 1
				return span, true
			}
		}
	}
	return nil, false
}

// AppendString appends s as the JSON string literal json.Marshal writes for
// it: the short escapes for quote, backslash, \b, \f, \n, \r and \t, \u00XX
// for the other control bytes and for <, > and &, \u2028 and \u2029 for the
// two line separators, and \ufffd for each byte that is not UTF-8.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
