package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ecodb/internal/core"
	"ecodb/internal/expr"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

// legacyResponse is the /query body as reflective encoding/json wrote it
// before the appender existed: the reference the appender must match once
// whitespace is removed (bench's fingerprints compare exactly that).
type legacyResponse struct {
	ID           string   `json:"id,omitempty"`
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsOut      int64    `json:"rows_out"`
	Explain      string   `json:"explain,omitempty"`
	QueueWaitSec float64  `json:"queue_wait_seconds"`
	DurationSec  float64  `json:"duration_seconds"`
	ResponseSec  float64  `json:"response_seconds"`
	Joules       float64  `json:"joules"`
	DeadlineMiss bool     `json:"deadline_miss,omitempty"`
	Error        string   `json:"error,omitempty"`
}

// legacyRow is the old per-cell conversion to JSON-friendly values.
func legacyRow(row expr.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case expr.KindNull:
			out[i] = nil
		case expr.KindBool:
			out[i] = v.I != 0
		case expr.KindInt:
			out[i] = v.I
		case expr.KindFloat:
			out[i] = v.F
		case expr.KindString:
			out[i] = v.S
		case expr.KindDate:
			out[i] = v.DateString()
		default:
			out[i] = v.String()
		}
	}
	return out
}

func legacyBody(t *testing.T, r *Response) []byte {
	t.Helper()
	out := legacyResponse{
		ID:           r.ID,
		Columns:      r.Columns,
		RowsOut:      r.RowsOut,
		Explain:      r.Explain,
		QueueWaitSec: r.QueueWait.Seconds(),
		DurationSec:  r.Duration.Seconds(),
		ResponseSec:  r.Response.Seconds(),
		Joules:       r.Joules,
		DeadlineMiss: r.DeadlineMiss,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	if r.Result != nil {
		for _, row := range r.Result.Rows() {
			out.Rows = append(out.Rows, legacyRow(row))
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return b
}

// batchOf builds an owned batch from rows, one AppendRow each.
func batchOf(width int, rows ...expr.Row) *expr.Batch {
	b := expr.NewBatch(width)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// dictBatch returns a one-column batch of words, dictionary-encoded against
// d, with NULL where a word is "".
func dictBatch(t *testing.T, d *expr.Dict, words ...string) *expr.Batch {
	t.Helper()
	b := expr.NewBatch(1)
	for _, w := range words {
		v := expr.String(w)
		if w == "" {
			v = expr.Null()
		}
		b.AppendRow(expr.Row{v})
	}
	if !b.Cols[0].EncodeDict(d) {
		t.Fatalf("words %q not all in the dictionary", words)
	}
	return b
}

// gathered is what the scheduler hands the handler: the source batches
// gathered into one owned batch.
func gathered(srcs ...*expr.Batch) *expr.Batch {
	res := expr.NewBatch(srcs[0].Width())
	for _, s := range srcs {
		res.AppendBatch(s, s.Len())
	}
	return res
}

var nastyStrings = []string{
	"", "plain", `quote " and backslash \`, "<script>&amp;</script>", "ctl \x00\x01\x1f\x7f",
	"\b\f\n\r\t", "line\u2028para\u2029", "bad utf8 \xff\xfe end", "trunc \xe2\x80", "caf\u00e9 \u2615 \U0001d11e",
}

// TestWireMatchesEncodingJSON: for every value kind and vector shape the
// executor can hand over, the appender's body, compacted, is byte for byte
// what json.Marshal wrote for the old [][]any form of the same response.
func TestWireMatchesEncodingJSON(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), 0, 1e-7, 1e-6, 1e21, 1e20, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		0.1, 12345.67, -99.99, 0.00005, 0.0001, 999999999.9999, 1e9, 123456789.5, 1.0 / 3, 2.5e-8, -1e-300}
	dates := []int64{0, -1, -365, -25567, -719528, -719529, 2932896, 2932897, 11016, 10956}

	var kinds []expr.Row
	for i := 0; i < max(len(floats), len(dates), len(nastyStrings)); i++ {
		row := expr.Row{
			expr.Bool(i%2 == 0),
			expr.Int([]int64{math.MinInt64, math.MaxInt64, 0, -1, 42}[i%5]),
			expr.Float(floats[i%len(floats)]),
			expr.String(nastyStrings[i%len(nastyStrings)]),
			expr.Date(dates[i%len(dates)]),
			expr.Null(),
		}
		if i%4 == 3 { // NULL in every kind
			for c := 0; c < 5; c++ {
				row[c] = expr.Null()
			}
		}
		kinds = append(kinds, row)
	}
	kindsBatch := batchOf(6, kinds...)

	selected := batchOf(6, kinds...)
	selected.Sel = []int32{1, 2, 5, 8, 13}

	words := []string{"AIR", "MAIL", `"q"`, "<b>", "x y", "\xff"}
	d1, d2 := expr.NewDict(words), expr.NewDict(append([]string{"other"}, words...))
	sameDict := gathered(dictBatch(t, d1, "AIR", "<b>", "", "AIR", `"q"`), dictBatch(t, d1, "<b>", "x y", "\xff", "AIR", ""))
	if sameDict.Cols[0].Dict == nil {
		t.Fatal("one dictionary across batches did not stay dictionary-encoded")
	}
	twoDicts := gathered(dictBatch(t, d1, "AIR", "", "<b>"), dictBatch(t, d2, "other", `"q"`, ""))
	if twoDicts.Cols[0].Dict != nil {
		t.Fatal("two dictionaries gathered into one vector stayed encoded")
	}
	bigDict := dictBatch(t, d2, "<b>", "<b>", "other") // most of the dictionary unused
	dictSel := dictBatch(t, d1, "AIR", "MAIL", `"q"`, "", "<b>", "MAIL")
	dictSel.Sel = []int32{1, 3, 4, 5}

	full := Response{ID: "s<1>", RowsOut: 3, QueueWait: 0.25, Duration: 1e-7, Response: 123.456, Joules: 1.0 / 3,
		DeadlineMiss: true, Explain: "Scan\n  └─ \"lineitem\" <&>\t", Err: errors.New("sql: bad <thing> \"x\"")}
	for _, tc := range []struct {
		name string
		r    Response
	}{
		{"every kind with NULLs", Response{Columns: []string{"b", "i", "f", "s", "d", "n"}, Result: kindsBatch, RowsOut: int64(kindsBatch.Len())}},
		{"selection vector", Response{Columns: []string{"b", "i", "f", "s", "d", "n"}, Result: selected}},
		{"one dictionary over two batches", Response{Columns: []string{"mode"}, Result: sameDict}},
		{"two dictionaries, dense fallback", Response{Columns: []string{"mode"}, Result: twoDicts}},
		{"dictionary mostly unused", Response{Columns: []string{"mode"}, Result: bigDict}},
		{"dictionary with a selection", Response{Columns: []string{"mode"}, Result: dictSel}},
		{"no rows", Response{ID: "s2", Columns: []string{"n"}, Result: expr.NewBatch(1)}},
		{"every scalar field", full},
		{"refusal", Response{Err: ErrOverloaded}},
		{"empty", Response{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := appendResponse(nil, &tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(got, []byte("}\n")) {
				t.Fatalf("body does not end in a newline: %q", got)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, got); err != nil {
				t.Fatalf("body is not JSON: %v\n%s", err, got)
			}
			if compact.Len() != len(got)-1 {
				t.Errorf("body is not compact: %d bytes compact to %d", len(got)-1, compact.Len())
			}
			if want := legacyBody(t, &tc.r); !bytes.Equal(compact.Bytes(), want) {
				t.Errorf("body differs from encoding/json\n got %s\nwant %s", compact.Bytes(), want)
			}
		})
	}
}

// TestAppendFloatMatchesEncodingJSON: the float rule writes what
// encoding/json writes, over money-shaped values, their products, and
// arbitrary bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendFloat(nil, f)
		if !ok || string(got) != string(want) {
			t.Fatalf("%v (bits %#x): got %q ok=%v, want %q", f, math.Float64bits(f), got, ok, want)
		}
	}
	for i := 0; i < 100000; i++ {
		cents := float64(rng.Int63n(1e11)) / 100
		check(cents)
		check(-cents)
		check(cents * (1 - float64(rng.Intn(11))/100))
		check(float64(rng.Int63n(1e13)) / 1e4)
		check(float64(rng.Intn(1e6)) / float64(1+rng.Intn(999)))
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			check(f)
		}
	}
	for _, f := range []float64{5e-5, 4.99995e-5, 1e-4, 0.00015, 999999999.99995, 999999999.9999, 1e9 - 1e-4, 0.5, 1.5, 2.5,
		0, 1e-5, 1.5e-5, 9.99995e-6, 1e-6, 1.25, 12.5, 100, 1e9, 12345.6, 0.1, 0.10001} {
		check(f)
		check(-f)
	}
	// The neighbours of k·10⁻ᵈ, the short path's hits and its near misses.
	for d := 0; d <= 6; d++ {
		for i := 0; i < 2000; i++ {
			k := float64(rng.Int63n(1 << 34))
			if i < 200 {
				k = float64(i)
			}
			x := k / math.Pow10(d)
			for _, f := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, 0)} {
				check(f)
				check(-f)
			}
		}
	}
	// Both sides of |f|·1e5 = 2⁵⁰, on and off five-digit decimals.
	for j := float64(-300); j <= 300; j++ {
		x := (1<<50 + j) / 1e5
		for _, f := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, 0)} {
			check(f)
			check(-f)
		}
	}
	// TPC-H-shaped charges p·(1−d)·(1+t): price in cents, discount and tax
	// in hundredths.
	for i := 0; i < 100000; i++ {
		p := float64(90000+rng.Intn(10500000)) / 100
		d, tax := float64(rng.Intn(11))/100, float64(rng.Intn(9))/100
		check(p * (1 - d))
		check(p * (1 - d) * (1 + tax))
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, ok := appendFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("%v: got %q ok=%v, want nothing appended and false", f, got, ok)
		}
	}
}

// TestShortDecimalPathFires: money-shaped values take the short path, and
// values past its bound or its five digits decline it, so a path that never
// fires, or fires too widely, fails here and not only in a profile.
func TestShortDecimalPathFires(t *testing.T) {
	for _, f := range []float64{0, 1e-5, 0.01, 0.07, 12.5, 901.0, 1234.56, 55000.25 * (1 - 0.07), 38014.56 * (1 - 0.04),
		99999999.99999, (1<<50 - 1) / 1e5} {
		m, ok := shortDecimal(f)
		if !ok {
			t.Errorf("%v: the short path declined", f)
			continue
		}
		if got, want := string(appendShortDecimal(nil, false, m)), strconv.FormatFloat(f, 'f', -1, 64); got != want {
			t.Errorf("%v: short path wrote %s, strconv %s", f, got, want)
		}
	}
	for _, f := range []float64{(1<<50 + 1) / 1e5, 1e11, 1e21, 1e-7, 9.99995e-6, 1.5e-5 + 1e-20, 1.0 / 3, 0.123456,
		math.Inf(1), math.NaN()} {
		if m, ok := shortDecimal(f); ok {
			t.Errorf("%v: the short path fired with m = %d", f, m)
		}
	}
}

// TestAppendDateMatchesDateString: the in-place calendar writes what
// Value.DateString renders, across and beyond the years it computes itself.
func TestAppendDateMatchesDateString(t *testing.T) {
	for days := int64(minFastDate - 800); days <= maxFastDate+800; days += 7 {
		for _, d := range []int64{days, days + 3} {
			want := `"` + expr.Date(d).DateString() + `"`
			if got := string(appendDate(nil, d)); got != want {
				t.Fatalf("day %d: got %s, want %s", d, got, want)
			}
		}
	}
}

// FuzzAppendJSONString holds the escaper to json.Marshal on arbitrary
// bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	})
}

// FuzzAppendFloat holds the float rule to json.Marshal over arbitrary bit
// patterns: a finite value is written as encoding/json writes it, and a
// non-finite one appends nothing and reports false.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-5, 9.99995e-6, 0.07, 1234.56, 1 << 50 / 1e5, 1e21, 1e-7,
		math.MaxFloat64, 5e-324, math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got, ok := appendFloat([]byte("x"), x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			if ok || string(got) != "x" {
				t.Fatalf("%v: got %q ok=%v, want nothing appended and false", x, got, ok)
			}
			return
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got[1:]) != string(want) {
			t.Fatalf("%v (bits %#x): got %q ok=%v, want %q", x, bits, got[1:], ok, want)
		}
	})
}

// TestAppendRowsAllocationBudget: encoding a 1024-row, 16-column answer
// into a warm buffer allocates nothing — dictionary columns and escaping
// included.
func TestAppendRowsAllocationBudget(t *testing.T) {
	const n, width = 1024, 16
	modes := expr.NewDict([]string{"AIR", "MAIL", "REG <AIR>", "SHIP\n"})
	flags := expr.NewDict([]string{"A", "F", "N", "R"})
	rows := make([]expr.Row, n)
	names := make([]string, width)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	for i := range rows {
		row := make(expr.Row, 0, width)
		for c := 0; c < 4; c++ {
			row = append(row, expr.Int(int64(i*(c+1)-500)))
		}
		row = append(row,
			expr.Float(float64(i)/100), expr.Float(float64(i)*1.1), expr.Float(float64(i)/7),
			expr.String(nastyStrings[i%len(nastyStrings)]), expr.String("ordinary text"), expr.String(fmt.Sprint(i)),
			expr.Date(int64(8000+i)), expr.Date(int64(-i)),
			expr.Bool(i%3 == 0),
			expr.String([]string{"AIR", "MAIL", "REG <AIR>", "SHIP\n"}[i%4]),
			expr.String([]string{"A", "F", "N", "R"}[i%4]),
		)
		if i%5 == 0 {
			row = append(row, expr.Null())
		} else {
			row = append(row, expr.Int(int64(i)))
		}
		rows[i] = row
	}
	b := batchOf(width, rows...)
	if !b.Cols[13].EncodeDict(modes) || !b.Cols[14].EncodeDict(flags) {
		t.Fatal("dictionary encoding failed")
	}

	buf, err := appendRows(nil, b, names)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf, err = appendRows(buf[:0], b, names)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("appending %d rows × %d columns allocated %v objects per run, want 0", n, width, allocs)
	}
	if !strings.HasPrefix(string(buf), "[[") {
		t.Fatalf("unexpected encoding %.40q", buf)
	}
}

// BenchmarkAppendRows encodes wide_result-shaped answers over TPC-H at SF
// 0.01: whole lineitem rows, whole orders rows, and the revenue projection,
// each gathered into one batch as the scheduler hands it to the handler.
// ns/row is the encode layer's cost per result row.
func BenchmarkAppendRows(b *testing.B) {
	sys := core.NewSystem(testProfile())
	tpch.NewGenerator(0.01, 42).Load(sys.Engine.Catalog(), tpch.Orders, tpch.Lineitem)
	sys.Engine.WarmAll()
	for _, q := range []struct{ name, sql string }{
		{"lineitem", "SELECT * FROM lineitem WHERE l_quantity BETWEEN 20 AND 21"},
		{"orders", "SELECT * FROM orders WHERE o_orderdate >= DATE '1997-09-07'"},
		{"revenue", "SELECT l_extendedprice * (1 - l_discount) AS revenue, l_quantity * 5 AS scaled" +
			" FROM lineitem WHERE l_quantity BETWEEN 20 AND 30"},
	} {
		stmt, err := sql.Parse(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		p, err := sql.Bind(sys.Engine.Catalog(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		res := expr.NewBatch(p.Schema().NumCols())
		for rows := sys.Engine.Query(p); ; {
			page, err := rows.Next()
			if err != nil {
				b.Fatal(err)
			}
			if page == nil {
				break
			}
			res.AppendBatch(page, page.Len())
		}
		names := make([]string, res.Width())
		for i, c := range p.Schema().Columns() {
			names[i] = c.Name
		}
		b.Run(q.name, func(b *testing.B) {
			buf, err := appendRows(nil, res, names)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for range b.N {
				buf, _ = appendRows(buf[:0], res, names)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Len()), "ns/row")
		})
	}
}
