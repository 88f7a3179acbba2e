package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// NDJSON framing limits. maxNDJSONLine is the longest line, its
// newline excluded, that DecodeNDJSON accepts: the 1 MiB line cap as a
// bufio.Scanner with a 1 MiB buffer applies it, where the newline needs
// room in the buffer too. minPresizeLine
// bounds the presized output to one Record per 32 bytes of body, so a
// body of short junk lines cannot buy a large allocation; real record
// lines are longer and the rest of the output grows by append.
const (
	maxNDJSONLine  = 1<<20 - 1
	minPresizeLine = 32
)

// readBody reads r to EOF into one buffer that doubles as it fills, so
// a body costs about twice its size in allocations. On a read error it
// returns the bytes read so far with the error.
func readBody(r io.Reader) ([]byte, error) {
	b := make([]byte, 0, 8<<10)
	for {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, 2*cap(b)), b...)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// nextLine splits body at its first newline. The last line of a body
// needs no newline.
func nextLine(body []byte) (line, rest []byte) {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		return body[:i], body[i+1:]
	}
	return body, nil
}

// ndjsonCap returns the capacity to presize an NDJSON body's output
// with: its non-blank lines, at most one per minPresizeLine bytes and
// at most MaxBatchRecords.
func ndjsonCap(body []byte) int {
	n, limit := 0, min(len(body)/minPresizeLine, MaxBatchRecords)
	for rest := body; len(rest) > 0 && n < limit; {
		var line []byte
		line, rest = nextLine(rest)
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// idents holds the machine, job, phase and sensor strings of one
// NDJSON body, so each distinct identifier is materialised once per
// body however many records repeat it.
type idents map[string]string

func (d idents) get(b []byte) string {
	if s, ok := d[string(b)]; ok { //hod:allow(hotpath) a map index keyed by string(b) compiles to an alloc-free lookup
		return s
	}
	s := string(b) //hod:allow(hotpath) materialises each distinct identifier once per body
	d[s] = s
	return s
}

// decodeLine decodes one trimmed, non-blank NDJSON line into rec. A
// line in the canonical Record form — an object with exact lowercase
// keys in any order, unescaped UTF-8 strings, integer t, number value
// and boolean env — is scanned by hand. Every other line decodes
// through json.Unmarshal, so its accept/reject decision and its Record
// are encoding/json's by construction.
//
//hod:hotpath
func decodeLine(raw []byte, rec *Record, ids idents) error {
	if scanRecord(raw, rec, ids) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(raw, rec)
}

// scanRecord reports whether b is a canonical Record object, decoding
// it into rec as it goes. On false rec holds a partial decode.
func scanRecord(b []byte, rec *Record, ids idents) bool {
	if len(b) < 2 || b[0] != '{' {
		return false
	}
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i+1 == len(b)
	}
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return false
		}
		if i = skipSpace(b, j); i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch {
		case equal(key, "machine"):
			rec.Machine, i, ok = scanIdent(b, i, ids)
		case equal(key, "job"):
			rec.Job, i, ok = scanIdent(b, i, ids)
		case equal(key, "phase"):
			rec.Phase, i, ok = scanIdent(b, i, ids)
		case equal(key, "sensor"):
			rec.Sensor, i, ok = scanIdent(b, i, ids)
		case equal(key, "t"):
			rec.T, i, ok = scanInt(b, i)
		case equal(key, "value"):
			rec.Value, i, ok = scanFloat(b, i)
		case equal(key, "env"):
			rec.Env, i, ok = scanBool(b, i)
		default:
			return false
		}
		if !ok {
			return false
		}
		if i = skipSpace(b, i); i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i+1 == len(b)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i, by the JSON definition of whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString scans the string starting at b[i]. It accepts only
// strings encoding/json would return verbatim: valid UTF-8 with no
// escapes or control characters. s aliases b; next indexes the byte
// after the closing quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) && plainASCII[b[j]] {
		j++
	}
	ascii := true
	for ; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i+1 : j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, j, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, len(b), false
}

// plainASCII marks the bytes a JSON string holds verbatim without
// further checks: printable ASCII other than the quote and backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanIdent scans an identifier string at b[i] and returns its
// per-body copy.
func scanIdent(b []byte, i int, ids idents) (string, int, bool) {
	s, next, ok := scanString(b, i)
	if !ok {
		return "", next, false
	}
	return ids.get(s), next, true
}

// scanInt scans an int at b[i]. strconv.ParseInt refuses a fraction,
// an exponent or an overflow, as encoding/json does for an int field.
func scanInt(b []byte, i int) (int, int, bool) {
	lit, next := scanNumber(b, i)
	t, err := strconv.ParseInt(numString(lit), 10, strconv.IntSize)
	return int(t), next, err == nil
}

// scanFloat scans a float64 at b[i].
func scanFloat(b []byte, i int) (float64, int, bool) {
	lit, next := scanNumber(b, i)
	v, err := strconv.ParseFloat(numString(lit), 64)
	return v, next, err == nil
}

// scanNumber scans a JSON number literal at b[i]; lit is empty when
// b[i] starts none.
func scanNumber(b []byte, i int) (lit []byte, next int) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j+1)
	default:
		return nil, j
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return nil, k
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		e := skipDigits(b, k)
		if e == k {
			return nil, e
		}
		j = e
	}
	return b[i:j], j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanBool scans a true or false literal at b[i].
func scanBool(b []byte, i int) (v bool, next int, ok bool) {
	switch {
	case hasPrefix(b[i:], "true"):
		return true, i + 4, true
	case hasPrefix(b[i:], "false"):
		return false, i + 5, true
	}
	return false, i, false
}

// equal reports whether b holds exactly s, without converting b.
func equal(b []byte, s string) bool {
	return len(b) == len(s) && hasPrefix(b, s)
}

func hasPrefix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// numString views a scanned number literal as a string without copying
// it, for strconv. The body it points into is never written after it
// is read, so the view stays valid for as long as anything holds it.
func numString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
