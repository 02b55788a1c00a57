package sql

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// q5Explain is the six-way join the short_stmt workload asks EXPLAIN of:
// the longest statement text the served workloads send.
var q5Explain = "EXPLAIN " + servedShapes[5]

// TestLexQ5AllocatesOnce: lexing a served statement allocates its token
// slice and nothing per token — no upper-cased copy of each word, no
// one-byte string per operator, no builder per string literal.
func TestLexQ5AllocatesOnce(t *testing.T) {
	toks, err := lex(q5Explain)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := lex(q5Explain); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d bytes, %d tokens: %.0f allocations", len(q5Explain), len(toks), allocs)
	if allocs > 2 {
		t.Errorf("lexing Q5's EXPLAIN text allocates %.0f times, want at most 2", allocs)
	}
}

// TestLexMatchesReference: the lexer yields exactly the tokens — kind, text
// and position — and the errors of the straightforward one it replaced
// (refLex), over every served shape and the corners the shortcuts touch:
// keywords in any case, words as long as a keyword and longer, non-ASCII
// letters, escaped and empty string literals, every operator and symbol.
func TestLexMatchesReference(t *testing.T) {
	inputs := append([]string{
		q5Explain,
		"select Count(*) aS n fRoM t wHeRe x BeTwEeN 1 and 2",
		"SELECT explain, explains, analyzed, analyze_x, _in, in_ FROM between_",
		"SELECT a FROM t WHERE s = 'it''s' OR s = '''' OR s = '' OR s = 'plain' OR s = 'x''y''z'",
		"SELECT a+b-c/d*e FROM t WHERE a<>b AND a<=b AND a>=b AND a<b AND a>b AND a=b;",
		"SELECT 1.5, 2., .5, 10 -- trailing comment\n FROM t",
		"SELECT \xe9t\xe9 FROM caf\xe9",
		"SELECT 'unterminated",
		"SELECT 'ends with an escaped quote''",
		"SELECT @",
		"SELECT a FROM t WHERE b = 'x' AND c",
	}, servedShapes...)
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %q is longer than maxKeywordLen %d: lex would take it for an identifier", kw, maxKeywordLen)
		}
		inputs = append(inputs, kw, strings.ToLower(kw))
	}
	for _, in := range inputs {
		got, gotErr := lex(in)
		want, wantErr := refLex(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, reference %v", in, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, reference %d", in, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: token %d is %+v, reference %+v", in, i, got[i], want[i])
			}
		}
	}
}

// refLex is the lexer as it was before it stopped allocating per token,
// kept as the reference TestLexMatchesReference holds lex to.
func refLex(input string) ([]token, error) {
	var out []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] != "" {
				out = append(out, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				out = append(out, token{kind: tokIdent, text: word, pos: start})
			}
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			out = append(out, token{kind: tokNumber, text: input[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			out = append(out, token{kind: tokString, text: sb.String(), pos: start})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				out = append(out, token{kind: tokOp, text: input[i : i+2], pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokOp, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				out = append(out, token{kind: tokOp, text: ">=", pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokOp, text: ">", pos: i})
				i++
			}
		case c == '=' || c == '+' || c == '-' || c == '/':
			out = append(out, token{kind: tokOp, text: string(c), pos: i})
			i++
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '.' || c == ';':
			out = append(out, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: n})
	return out, nil
}
