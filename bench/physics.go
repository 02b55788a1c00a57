package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"ecodb/internal/expr"
	"ecodb/internal/server"
)

// oracle is what the physics pass knows about one statement list: the
// answer to every statement, and the simulated cost of serving the list.
type oracle struct {
	Stmts []stmtAnswer `json:"statements"`
	// SimJoulesPerStmt is the pass's CPU joules over its completed
	// statements; SimResponseMsPerStmt their mean queue-entry→completion
	// time in simulated milliseconds.
	SimJoulesPerStmt     float64 `json:"sim_joules_per_stmt"`
	SimResponseMsPerStmt float64 `json:"sim_response_ms_per_stmt"`
}

// stmtAnswer is one statement's result cardinality and fingerprint.
type stmtAnswer struct {
	RowsOut     int64  `json:"rows_out"`
	Fingerprint string `json:"fingerprint"`
}

// physicsPass serves the statement list once on a fresh system in
// simulated time: statements i and i+20 arrive together — the pair the
// two closed-loop clients put in the queue together — and each pair
// arrives the instant the previous one completes, so the simulated
// machine never idles. One goroutine drives it, and the executor replays
// every charge in page order whatever its workers do, so the pass is
// bit-reproducible: it is the benchmark's correctness gate for simulator
// changes and the oracle the HTTP answers are checked against.
func physicsPass(w *workload, sf float64, stmts []string) (*oracle, error) {
	sys := newSystem(sf)
	c := server.NewCore(serverConfig(w.Policy, clients), sys)
	cat := sys.Engine.Catalog()
	half := len(stmts) / 2
	out := &oracle{Stmts: make([]stmtAnswer, len(stmts))}
	var joules, response float64
	for i := 0; i < half; i++ {
		pair := [clients]int{i, i + half}
		now := sys.Machine.Clock.Now()
		arrivals := make([]server.Arrival, len(pair))
		for k, idx := range pair {
			req, err := buildRequest(cat, stmts[idx])
			if err != nil {
				return nil, fmt.Errorf("statement %d %q: %w", idx, stmts[idx], err)
			}
			req.ID = strconv.Itoa(idx)
			arrivals[k] = server.Arrival{At: now, Req: req}
		}
		res := c.RunOpenLoop(arrivals)
		if res.Completed != len(pair) {
			return nil, fmt.Errorf("physics pass: pair %d completed %d of %d statements", i, res.Completed, len(pair))
		}
		joules += res.Joules
		for k, idx := range pair {
			r := res.Responses[k]
			if r.ID != strconv.Itoa(idx) {
				return nil, fmt.Errorf("physics pass: response %q where statement %d was expected", r.ID, idx)
			}
			fp, err := fingerprintResponse(r)
			if err != nil {
				return nil, err
			}
			out.Stmts[idx] = stmtAnswer{RowsOut: r.RowsOut, Fingerprint: formatFingerprint(fp)}
			response += r.Response.Seconds()
		}
	}
	n := float64(len(stmts))
	out.SimJoulesPerStmt = joules / n
	out.SimResponseMsPerStmt = response / n * 1e3
	return out, nil
}

// FNV-1a, 64 bit, written out so the response scanner can feed it byte by
// byte without an interface call.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func formatFingerprint(h uint64) string { return fmt.Sprintf("%016x", h) }

// fingerprintResponse hashes an in-process response the way scanResponse
// hashes its HTTP rendering: the compact JSON of the row array (absent
// when there are no rows) followed by the JSON string of the EXPLAIN text
// (absent when empty).
func fingerprintResponse(r server.Response) (uint64, error) {
	h := uint64(fnvOffset)
	if len(r.Rows) > 0 {
		rows := make([][]any, len(r.Rows))
		for i, row := range r.Rows {
			rows[i] = wireRow(row)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return 0, err
		}
		h = fnvAdd(h, b)
	}
	if r.Explain != "" {
		b, err := json.Marshal(r.Explain)
		if err != nil {
			return 0, err
		}
		h = fnvAdd(h, b)
	}
	return h, nil
}

// wireRow maps a result row to the values the /query wire format carries:
// numbers as JSON numbers, dates as YYYY-MM-DD strings, NULL as null.
func wireRow(row expr.Row) []any {
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

// scanResponse walks a /query response body once, without allocating, and
// returns its rows_out, whether it carries an error, and the fingerprint
// of its rows and explain values. Whitespace between tokens is skipped,
// so indentation is free to change; the scalars' text is not.
func scanResponse(body []byte) (rowsOut int64, fp uint64, hasError bool, err error) {
	fp = fnvOffset
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0, 0, false, fmt.Errorf("response is not a JSON object")
	}
	i++
	for {
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, 0, false, fmt.Errorf("response object is truncated")
		}
		if body[i] == '}' {
			return rowsOut, fp, hasError, nil
		}
		if body[i] == ',' {
			i++
			continue
		}
		keyEnd, err := valueEnd(body, i)
		if err != nil || body[i] != '"' {
			return 0, 0, false, fmt.Errorf("response object has a malformed key at byte %d", i)
		}
		key := body[i+1 : keyEnd-1]
		i = skipSpace(body, keyEnd)
		if i >= len(body) || body[i] != ':' {
			return 0, 0, false, fmt.Errorf("response object lacks ':' at byte %d", i)
		}
		i = skipSpace(body, i+1)
		end, err := valueEnd(body, i)
		if err != nil {
			return 0, 0, false, err
		}
		switch string(key) {
		case "rows":
			fp = fnvAddCompact(fp, body[i:end])
		case "explain":
			fp = fnvAdd(fp, body[i:end])
		case "rows_out":
			rowsOut, err = strconv.ParseInt(string(body[i:end]), 10, 64)
			if err != nil {
				return 0, 0, false, fmt.Errorf("rows_out: %w", err)
			}
		case "error":
			hasError = true
		}
		i = end
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// valueEnd returns the index just past the JSON value starting at b[i].
func valueEnd(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, fmt.Errorf("response is truncated")
	}
	switch b[i] {
	case '"':
		for j := i + 1; j < len(b); j++ {
			switch b[j] {
			case '\\':
				j++
			case '"':
				return j + 1, nil
			}
		}
		return 0, fmt.Errorf("response has an unterminated string")
	case '[', '{':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end, err := valueEnd(b, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '[', '{':
				depth++
			case ']', '}':
				depth--
				if depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, fmt.Errorf("response has an unterminated array or object")
	default:
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' &&
			b[j] != ' ' && b[j] != '\n' && b[j] != '\t' && b[j] != '\r' {
			j++
		}
		return j, nil
	}
}

// fnvAddCompact hashes a JSON value with the whitespace outside its
// strings removed — the bytes json.Marshal would have produced.
func fnvAddCompact(h uint64, v []byte) uint64 {
	inString := false
	for j := 0; j < len(v); j++ {
		c := v[j]
		if inString {
			h = (h ^ uint64(c)) * fnvPrime
			if c == '\\' && j+1 < len(v) {
				j++
				h = (h ^ uint64(v[j])) * fnvPrime
			} else if c == '"' {
				inString = false
			}
			continue
		}
		if c == ' ' || c == '\n' || c == '\t' || c == '\r' {
			continue
		}
		if c == '"' {
			inString = true
		}
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// expectedFile is bench/expected.json: the seed-42 oracle of every
// workload at its full scale factor.
type expectedFile struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]*oracle `json:"workloads"`
}

const expectedSeed = 42

func readExpected(path string) (*expectedFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// diffOracle lists how got departs from want, at most limit lines.
func diffOracle(want, got *oracle, limit int) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < limit {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	if want.SimJoulesPerStmt != got.SimJoulesPerStmt {
		add("sim_joules_per_stmt: expected %v, got %v", want.SimJoulesPerStmt, got.SimJoulesPerStmt)
	}
	if want.SimResponseMsPerStmt != got.SimResponseMsPerStmt {
		add("sim_response_ms_per_stmt: expected %v, got %v", want.SimResponseMsPerStmt, got.SimResponseMsPerStmt)
	}
	if len(want.Stmts) != len(got.Stmts) {
		add("statement count: expected %d, got %d", len(want.Stmts), len(got.Stmts))
		return out
	}
	for i := range want.Stmts {
		if want.Stmts[i] != got.Stmts[i] {
			add("statement %d: expected %+v, got %+v", i, want.Stmts[i], got.Stmts[i])
		}
	}
	return out
}
