package value

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire form of a Value is a JSON object whose "kind" names the variant
// and whose payload fields carry it, in this order: {"kind":"int","int":42},
// {"kind":"pair","int":1,"int2":2}, {"kind":"bool","bool":true},
// {"kind":"string","str":"x"}, {"kind":"unit"}, {"kind":"nil"}.
//
// The codec is written by hand because it sits on the service's hot path
// (DESIGN §11, "The wire codec"). It keeps encoding/json's contract for
// that form to the byte: AppendJSON writes what json.Marshal writes for a
// struct with those tags (HTML-safe escapes, U+FFFD for invalid UTF-8),
// and Scanner accepts exactly the documents json.Unmarshal accepts, with
// the same values: any whitespace and field order, unknown fields skipped,
// keys matched case-insensitively, null, every escape. FuzzValueJSON holds
// it to that reflection codec, kept in json_test.go as the reference.

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(make([]byte, 0, 32)), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	s := NewScanner(data)
	x := s.Value()
	s.End()
	if err := s.Err(); err != nil {
		return err
	}
	*v = x
	return nil
}

// AppendJSON appends v's wire form to b.
func (v Value) AppendJSON(b []byte) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, v.kind.String()...)
	b = append(b, '"')
	switch v.kind {
	case KindInt:
		b = append(b, `,"int":`...)
		b = strconv.AppendInt(b, v.i, 10)
	case KindBool:
		b = append(b, `,"bool":`...)
		b = strconv.AppendBool(b, v.b)
	case KindString:
		b = append(b, `,"str":`...)
		b = AppendString(b, v.s)
	case KindPair:
		b = append(b, `,"int":`...)
		b = strconv.AppendInt(b, v.i, 10)
		b = append(b, `,"int2":`...)
		b = strconv.AppendInt(b, v.j, 10)
	}
	return append(b, '}')
}

// AppendString appends s as a JSON string, escaped as json.Marshal escapes
// it: short escapes for \b \f \n \r \t \" \\, \u00XX for the other control
// bytes and for < > &, a \u escape for U+2028 and U+2029, and the escape
// of U+FFFD for each byte of invalid UTF-8.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
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
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes json.Marshal writes unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// plain marks the bytes a string token holds verbatim: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// maxDepth is encoding/json's nesting limit: a document that holds more
// open objects and arrays than this at once is refused.
const maxDepth = 10000

// errEOF is the error for a document that ends inside a value.
var errEOF = errors.New("json: unexpected end of JSON input")

// Scanner decodes one JSON document in a single pass over its bytes,
// checking the syntax as it goes. The caller drives it by the shape it
// expects: Object and Array walk containers, StringInto, BoolInto and Value
// decode leaves, Skip passes over anything else, and End checks that only
// whitespace follows. Its errors are sticky: after the first, every read is
// a no-op, so a decoder checks Err once at the end.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	err   error
	buf   []byte // unescaped strings, reused
}

// NewScanner returns a Scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Err reports the first error the scanner met.
func (s *Scanner) Err() error { return s.err }

// End requires that nothing but whitespace follows the document.
func (s *Scanner) End() {
	if c := s.peek(); s.err == nil && s.pos < len(s.data) {
		s.syntax(c, "after top-level value")
	}
}

// Null consumes a null literal if one comes next.
func (s *Scanner) Null() bool {
	if s.peek() != 'n' {
		return false
	}
	s.literal("null")
	return true
}

// Object reads an object, calling member with each key (unescaped, valid
// until the next read) while the scanner stands before that key's value.
// member must consume the value. Anything but an object is an error; the
// caller handles null first where null is allowed.
func (s *Scanner) Object(member func(key []byte)) {
	if !s.open('{', "object") {
		return
	}
	if s.peek() == '}' {
		s.close()
		return
	}
	for {
		if c := s.peek(); c != '"' {
			s.syntax(c, "looking for beginning of object key string")
			return
		}
		key := s.str()
		if c := s.peek(); c != ':' {
			s.syntax(c, "after object key")
			return
		}
		s.pos++
		member(key)
		if s.err != nil {
			return
		}
		switch c := s.peek(); c {
		case ',':
			s.pos++
		case '}':
			s.close()
			return
		default:
			s.syntax(c, "after object key:value pair")
			return
		}
	}
}

// Array reads an array, calling elem while the scanner stands before each
// element; elem must consume it.
func (s *Scanner) Array(elem func()) {
	if !s.open('[', "array") {
		return
	}
	if s.peek() == ']' {
		s.close()
		return
	}
	for {
		elem()
		if s.err != nil {
			return
		}
		switch c := s.peek(); c {
		case ',':
			s.pos++
		case ']':
			s.close()
			return
		default:
			s.syntax(c, "after array element")
			return
		}
	}
}

// StringInto decodes a string into *dst. Like encoding/json on a string
// field, null leaves *dst as it was.
func (s *Scanner) StringInto(dst *string) {
	if s.Null() {
		return
	}
	if s.peek() != '"' {
		s.mismatch("string")
		return
	}
	if b := s.str(); s.err == nil {
		*dst = string(b)
	}
}

// BoolInto decodes a boolean into *dst; null leaves *dst as it was.
func (s *Scanner) BoolInto(dst *bool) {
	switch s.peek() {
	case 'n':
		s.literal("null")
	case 't':
		if s.literal("true") {
			*dst = true
		}
	case 'f':
		if s.literal("false") {
			*dst = false
		}
	default:
		s.mismatch("bool")
	}
}

// Skip passes over one value of any shape, checking its syntax.
func (s *Scanner) Skip() {
	switch c := s.peek(); {
	case c == '{':
		s.Object(s.skipMember)
	case c == '[':
		s.Array(s.Skip)
	case c == '"':
		s.str()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		s.number()
	default:
		s.syntax(c, "looking for beginning of value")
	}
}

func (s *Scanner) skipMember([]byte) { s.Skip() }

// Value decodes a Value's wire form. null is the nil Value. Within the
// object, null clears a payload field and leaves "kind" as it was, and the
// last of repeated keys wins, as they did for the reflection codec.
func (s *Scanner) Value() Value {
	if s.Null() {
		return Nil()
	}
	var (
		kind         = KindNil
		known        = true
		unknown      string // the last kind name, when not a known one
		i, j         int64
		b            bool
		str          string
		hasI, hasJ   bool
		hasB, hasStr bool
	)
	s.Object(func(key []byte) {
		switch {
		case KeyMatches(key, "kind"):
			if s.Null() {
				return
			}
			if s.peek() != '"' {
				s.mismatch("string")
				return
			}
			name := s.str()
			if kind, known = kindNamed(name); !known {
				unknown = string(name)
			}
		case KeyMatches(key, "int"):
			if hasI = !s.Null(); hasI {
				i = s.int64()
			}
		case KeyMatches(key, "int2"):
			if hasJ = !s.Null(); hasJ {
				j = s.int64()
			}
		case KeyMatches(key, "bool"):
			if hasB = !s.Null(); hasB {
				s.BoolInto(&b)
			}
		case KeyMatches(key, "str"):
			if hasStr = !s.Null(); hasStr {
				s.StringInto(&str)
			}
		default:
			s.Skip()
		}
	})
	if s.err != nil {
		return Nil()
	}
	if !known {
		s.err = fmt.Errorf("value: unknown kind %q", unknown)
		return Nil()
	}
	missing := false
	var v Value
	switch kind {
	case KindNil:
		v = Nil()
	case KindUnit:
		v = Unit()
	case KindInt:
		v, missing = Int(i), !hasI
	case KindBool:
		v, missing = Bool(b), !hasB
	case KindString:
		v, missing = Str(str), !hasStr
	case KindPair:
		v, missing = Pair(i, j), !hasI || !hasJ
	}
	if missing {
		s.err = fmt.Errorf("value: %s value missing payload", kind)
		return Nil()
	}
	return v
}

// kindNamed maps a wire kind name to its Kind; "" names Nil, as the
// absent field does.
func kindNamed(name []byte) (Kind, bool) {
	switch string(name) {
	case "nil", "":
		return KindNil, true
	case "unit":
		return KindUnit, true
	case "int":
		return KindInt, true
	case "bool":
		return KindBool, true
	case "string":
		return KindString, true
	case "pair":
		return KindPair, true
	}
	return KindNil, false
}

// KeyMatches reports whether an object key selects the struct field whose
// JSON name is field (lower-case ASCII), by encoding/json's rule: the
// names are equal after each rune is folded to the smallest rune of its
// Unicode case-folding orbit, so "KIND" and "\u212aind" (Kelvin sign)
// both select "kind".
func KeyMatches(key []byte, field string) bool {
	if string(key) == field {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(field) {
			return false
		}
		c := key[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(key[i:])
			r = foldRune(r)
			if r >= utf8.RuneSelf {
				return false
			}
			c = byte(r)
			i += n
		} else {
			i++
		}
		if upper(c) != upper(field[j]) {
			return false
		}
	}
	return j == len(field)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end or
// after an error.
func (s *Scanner) peek() byte {
	if s.err != nil {
		return 0
	}
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes the opening byte c of a container.
func (s *Scanner) open(c byte, what string) bool {
	if s.peek() != c {
		s.mismatch(what)
		return false
	}
	s.pos++
	if s.depth++; s.depth > maxDepth {
		s.err = errors.New("json: exceeded max depth")
		return false
	}
	return true
}

func (s *Scanner) close() {
	s.pos++
	s.depth--
}

// mismatch records that the next value is not what the caller decodes:
// a type error if it is a well-formed start of some other value, else a
// syntax error.
func (s *Scanner) mismatch(want string) {
	c := s.peek()
	if s.err != nil {
		return
	}
	var got string
	switch {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == 'n':
		got = "null"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		s.syntax(c, "looking for beginning of value")
		return
	}
	s.err = fmt.Errorf("json: cannot decode %s into %s at offset %d", got, want, s.pos)
}

// syntax records a syntax error at the current position; c is the byte
// found there (0 at the end of input).
func (s *Scanner) syntax(c byte, context string) {
	if s.err != nil {
		return
	}
	if s.pos >= len(s.data) {
		s.err = errEOF
		return
	}
	s.err = fmt.Errorf("json: invalid character %q %s at offset %d", c, context, s.pos)
}

// literal consumes the literal lit.
func (s *Scanner) literal(lit string) bool {
	for k := 0; k < len(lit); k++ {
		if s.pos+k >= len(s.data) {
			s.err = errEOF
			return false
		}
		if s.data[s.pos+k] != lit[k] {
			s.pos += k
			s.syntax(s.data[s.pos], "in literal "+lit)
			return false
		}
	}
	s.pos += len(lit)
	return true
}

// number consumes a number and returns its bytes: -?(0|[1-9][0-9]*)
// (\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() []byte {
	d, start := s.data, s.pos
	i := start
	if s.at(i) == '-' {
		i++
	}
	if s.at(i) == '0' {
		i++
	} else if i = s.digits(i, "in numeric literal"); i < 0 {
		return nil
	}
	if s.at(i) == '.' {
		if i = s.digits(i+1, "after decimal point in numeric literal"); i < 0 {
			return nil
		}
	}
	if c := s.at(i); c == 'e' || c == 'E' {
		i++
		if c := s.at(i); c == '+' || c == '-' {
			i++
		}
		if i = s.digits(i, "in exponent of numeric literal"); i < 0 {
			return nil
		}
	}
	s.pos = i
	return d[start:i]
}

// digits consumes one or more digits from i and returns the index after
// them, or records a syntax error and returns -1.
func (s *Scanner) digits(i int, context string) int {
	if c := s.at(i); c < '0' || c > '9' {
		s.pos = i
		s.syntax(c, context)
		return -1
	}
	for i++; '0' <= s.at(i) && s.at(i) <= '9'; i++ {
	}
	return i
}

func (s *Scanner) at(i int) byte {
	if i < len(s.data) {
		return s.data[i]
	}
	return 0
}

// int64 decodes a number that fits an int64 exactly, as encoding/json
// does for an int64 field: fractions, exponents and overflow are errors.
func (s *Scanner) int64() int64 {
	c := s.peek()
	if c != '-' && (c < '0' || c > '9') {
		s.mismatch("int64")
		return 0
	}
	start := s.pos
	num := s.number()
	if s.err != nil {
		return 0
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	const limit = 1 << 63
	var u uint64
	for _, c := range num {
		if c < '0' || c > '9' || u > limit/10 {
			u = limit + 1
			break
		}
		u = u*10 + uint64(c-'0')
	}
	if u > limit || (!neg && u == limit) {
		s.err = fmt.Errorf("json: cannot decode number %s into int64 at offset %d", s.data[start:s.pos], start)
		return 0
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// str consumes a string and returns its unescaped bytes: a slice of the
// input when the string holds no escape and only valid UTF-8, else s.buf.
// Either is valid until the next read.
func (s *Scanner) str() []byte {
	start := s.pos + 1
	for i := start; i < len(s.data); {
		c := s.data[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			s.pos = i + 1
			return s.data[start:i]
		case c < utf8.RuneSelf:
			return s.unescape(start, i)
		default:
			r, n := utf8.DecodeRune(s.data[i:])
			if r == utf8.RuneError && n == 1 {
				return s.unescape(start, i)
			}
			i += n
		}
	}
	s.err = errEOF
	return nil
}

// unescape finishes a string whose first escape, control byte or invalid
// UTF-8 is at i, decoding as encoding/json does: a surrogate \u escape not
// followed by its pair, and each byte of invalid UTF-8, become U+FFFD.
func (s *Scanner) unescape(start, i int) []byte {
	d := s.data
	b := append(s.buf[:0], d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			s.buf = b
			return b
		case c < ' ':
			s.pos = i
			s.syntax(c, "in string literal")
			return nil
		case c == '\\':
			e := s.at(i + 1)
			switch e {
			case '"', '\\', '/':
			case 'b':
				e = '\b'
			case 'f':
				e = '\f'
			case 'n':
				e = '\n'
			case 'r':
				e = '\r'
			case 't':
				e = '\t'
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					s.pos = i
					s.syntax(c, "in \\u hexadecimal character escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d[i:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.pos = i + 1
				s.syntax(e, "in string escape code")
				return nil
			}
			b = append(b, e)
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	s.err = errEOF
	return nil
}

// hex4 decodes the \uXXXX escape at the start of p, or returns -1.
func hex4(p []byte) rune {
	if len(p) < 6 || p[0] != '\\' || p[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range p[2:6] {
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
		r = r*16 + rune(c)
	}
	return r
}
