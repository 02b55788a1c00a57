package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"ecodb/internal/expr"
)

// This file is the /query wire format. One appender writes every /query
// JSON body, answers and refusals alike, compact and straight from the
// result batch's column payloads: no cell is boxed into an expr.Value or an
// interface on the way, and nothing is reflected. The bytes are the ones
// encoding/json writes for the same response with HTML escaping on; the
// differential and fuzz tests hold the appender to that.

const (
	// wireBufBytes is a fresh buffer's capacity: one-row answers and
	// refusals fit without growing it.
	wireBufBytes = 4 << 10
	// maxPooledWireBytes is the largest buffer returned to the pool, so one
	// huge answer cannot pin its buffer in the process.
	maxPooledWireBytes = 1 << 20
)

// wireBufs holds the buffers /query bodies are built in: a steady stream of
// answers reuses the same few.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, wireBufBytes)
	return &b
}}

// writeResponse writes r as a /query answer with the given status. The body
// is built whole before anything is written, so a result JSON cannot carry
// (a non-finite float) turns the answer into a 500 naming the cell rather
// than a 200 cut short.
func writeResponse(w http.ResponseWriter, status int, r *Response) {
	buf := wireBufs.Get().(*[]byte)
	body, err := appendResponse((*buf)[:0], r)
	if err != nil {
		status = http.StatusInternalServerError
		// No rows and no non-zero floats: this encoding cannot fail.
		body, _ = appendResponse(body[:0], &Response{ID: r.ID, Columns: r.Columns, RowsOut: r.RowsOut, Err: err})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) // a failed write is a client that hung up; there is no one left to tell
	if cap(body) <= maxPooledWireBytes {
		*buf = body[:0]
		wireBufs.Put(buf)
	}
}

// appendResponse appends r's JSON object and a trailing newline: the keys
// in wire order, empty id, columns, rows, explain, deadline_miss and error
// left out.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = append(b, '{')
	if r.ID != "" {
		b = appendString(append(b, `"id":`...), r.ID)
		b = append(b, ',')
	}
	if len(r.Columns) > 0 {
		b = append(b, `"columns":[`...)
		for i, name := range r.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, "],"...)
	}
	if r.Result != nil && r.Result.Len() > 0 {
		var err error
		if b, err = appendRows(append(b, `"rows":`...), r.Result, r.Columns); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	b = strconv.AppendInt(append(b, `"rows_out":`...), r.RowsOut, 10)
	if r.Explain != "" {
		b = appendString(append(b, `,"explain":`...), r.Explain)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"queue_wait_seconds", r.QueueWait.Seconds()},
		{"duration_seconds", r.Duration.Seconds()},
		{"response_seconds", r.Response.Seconds()},
		{"joules", r.Joules},
	} {
		b = append(append(append(b, `,"`...), f.key...), `":`...)
		var ok bool
		if b, ok = appendFloat(b, f.v); !ok {
			return b, fmt.Errorf("server: %s is %v, which JSON cannot carry", f.key, f.v)
		}
	}
	if r.DeadlineMiss {
		b = append(b, `,"deadline_miss":true`...)
	}
	if r.Err != nil {
		b = appendString(append(b, `,"error":`...), r.Err.Error())
	}
	return append(b, "}\n"...), nil
}

// appendRows appends res's logical rows as a JSON array of arrays.
func appendRows(b []byte, res *expr.Batch, names []string) ([]byte, error) {
	n := res.Len()
	b = append(b, '[')
	for li := 0; li < n; li++ {
		if li > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		i := res.RowIdx(li)
		for c := range res.Cols {
			if c > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendCell(b, &res.Cols[c], i); !ok {
				name := ""
				if c < len(names) {
					name = names[c]
				}
				return b, fmt.Errorf("server: result row %d, column %d %q holds %v, which JSON cannot carry",
					li, c, name, res.Cols[c].Get(i))
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendCell appends element i of vector v from its payload: bools and
// numbers as JSON literals, dates as "YYYY-MM-DD", NULL as null. It reports
// false for a non-finite float.
func appendCell(b []byte, v *expr.ColVec, i int) ([]byte, bool) {
	switch {
	case v.IsNull(i):
		return append(b, "null"...), true
	case v.Dict != nil:
		return appendString(b, v.Dict.Word(v.Codes[i])), true
	}
	switch v.Kind {
	case expr.KindBool:
		return strconv.AppendBool(b, v.I[i] != 0), true
	case expr.KindFloat:
		return appendFloat(b, v.F[i])
	case expr.KindString:
		return appendString(b, v.S[i]), true
	case expr.KindInt:
		return strconv.AppendInt(b, v.I[i], 10), true
	}
	return appendDate(b, v.I[i]), true // KindDate
}

// appendFloat appends f as encoding/json writes a float64 — the shortest
// text that round-trips, in 'f' form unless |f| is below 1e-6 or at least
// 1e21, whose 'e' form drops a leading zero from a negative exponent. It
// reports false, appending nothing, for ±Inf and NaN, which JSON cannot
// carry. Short decimals, such as prices and their products, skip strconv.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	abs := math.Abs(f)
	if m, ok := shortDecimal(abs); ok {
		return appendShortDecimal(b, math.Signbit(f), m), true
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, true
}

// shortDecimal returns m when D = m·10⁻⁵, trailing zeros dropped, is
// strconv's shortest text for abs = |f|. With m = round(abs·1e5) below 2⁵⁰,
// m and 1e5 are exact doubles and m/1e5 is D correctly rounded, so
// m/1e5 == abs is exactly ParseFloat(D) == abs. Then abs < 2³⁴: its
// rounding interval is at most 2⁻¹⁹ < 10⁻⁵ wide, and D is its only decimal
// with at most five fractional digits. Any other decimal E in it has a
// digit below 10⁻⁵; with no more significant digits than D, E starts a
// place below D's leading place 10ᵖ, so E < 10ᵖ ≤ D. If D > 10ᵖ, then
// D ≥ 10ᵖ + 10⁻⁵; if D = 10ᵖ, E has one digit too and E ≤ 0.9·D. Both gaps
// exceed the interval, so D is the shortest text, and the only one of its
// length. Every such abs passes, since abs·1e5 lies within 0.16 of m. NaN,
// ±Inf and the 'e' range (m ≥ 2⁵⁰ or m = 0) fail.
func shortDecimal(abs float64) (uint64, bool) {
	m := math.Round(abs * 1e5)
	return uint64(m), m < 1<<50 && m/1e5 == abs
}

// digitPairs holds "00" through "99", two digits a step for the writer.
const digitPairs = "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849" +
	"5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendShortDecimal appends m·10⁻⁵, m < 2⁵⁰, with a leading '-' if neg
// and the fraction's trailing zeros dropped.
func appendShortDecimal(b []byte, neg bool, m uint64) []byte {
	if neg {
		b = append(b, '-')
	}
	ip, frac := m/1e5, m%1e5
	var buf [12]byte // ip < 2⁵⁰/1e5: at most 11 digits
	i := len(buf)
	for ; ip >= 100; ip /= 100 {
		i -= 2
		j := ip % 100 * 2
		buf[i], buf[i+1] = digitPairs[j], digitPairs[j+1]
	}
	i -= 2
	buf[i], buf[i+1] = digitPairs[ip*2], digitPairs[ip*2+1]
	if ip < 10 {
		i++
	}
	b = append(b, buf[i:]...)
	if frac == 0 {
		return b
	}
	mid, lo := frac/100%100*2, frac%100*2
	b = append(b, '.', byte('0'+frac/1e4), digitPairs[mid], digitPairs[mid+1], digitPairs[lo], digitPairs[lo+1])
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// safeASCII marks the ASCII bytes a JSON string carries as themselves.
var safeASCII = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string exactly as encoding/json writes
// it with HTML escaping on: '"' and '\\' backslashed, \b \f \n \r \t by
// name, every other control byte and < > & as \u00XX, U+2028 and U+2029 as
// \u202X, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safeASCII[c] {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// The dates appendDate writes itself: 0000-01-01 through 9999-12-31, as
// days since 1970-01-01.
const (
	minFastDate = -719528
	maxFastDate = 2932896
)

// appendDate appends days since 1970-01-01 as the JSON string
// "YYYY-MM-DD", the text Value.DateString renders. Years 0 to 9999 are
// computed in place — the proleptic Gregorian calendar Go's time package
// uses, counted in 400-year eras from 0000-03-01 — and anything outside
// falls back to DateString itself.
func appendDate(b []byte, days int64) []byte {
	if days < minFastDate || days > maxFastDate {
		return appendString(b, expr.Date(days).DateString())
	}
	z := days + 719468 // days since 0000-03-01, ≥ −60 here
	era := z / 146097
	if z < 0 {
		era = -1
	}
	doe := z - era*146097                                  // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of March-based year, [0, 365]
	mp := (5*doy + 2) / 153                                // March-based month, [0, 11]
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	y := yoe + era*400
	if mp >= 10 {
		m -= 12
		y++
	}
	return append(b, '"',
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10), '"')
}
