package sql

import (
	"fmt"
	"strings"
	"testing"
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

// TestLexTokensRoundTripAndPointAtTheirSpelling holds lex to what its
// tokens mean, over every served shape and the corners the shortcuts
// touch: keywords in any case, words as long as a keyword and longer,
// non-ASCII letters, escaped and empty string literals, every operator and
// symbol, and comments.
//
//   - Each token's pos points at its spelling: an identifier, number,
//     operator or symbol is spelled by its text, a keyword by its text in
//     any letter case, and a string literal by its text quoted, each quote
//     doubled. The end token sits at the end of the input.
//   - Between one token's spelling and the next lies only whitespace or a
//     comment, so no byte of the input is dropped.
//   - A word is a keyword exactly when its upper-cased spelling is one.
//   - Lexing the tokens' spellings, joined by spaces, yields the same
//     tokens at their offsets in that rendering.
//
// Malformed input fails with the offset of the literal or byte at fault.
func TestLexTokensRoundTripAndPointAtTheirSpelling(t *testing.T) {
	inputs := append([]string{
		q5Explain,
		"select Count(*) aS n fRoM t wHeRe x BeTwEeN 1 and 2",
		"SELECT explain, explains, analyzed, analyze_x, _in, in_ FROM between_",
		"SELECT a FROM t WHERE s = 'it''s' OR s = '''' OR s = '' OR s = 'plain' OR s = 'x''y''z'",
		"SELECT a+b-c/d*e FROM t WHERE a<>b AND a<=b AND a>=b AND a<b AND a>b AND a=b;",
		"SELECT 1.5, 2., .5, 10 -- trailing comment\n FROM t -- and a last one",
		"SELECT \xe9t\xe9 FROM caf\xe9",
		"SELECT a FROM t WHERE b = 'x' AND c",
	}, servedShapes...)
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %q is longer than maxKeywordLen %d: lex would take it for an identifier", kw, maxKeywordLen)
		}
		inputs = append(inputs, kw, strings.ToLower(kw), "x"+kw, kw+"_")
	}
	for _, in := range inputs {
		toks, err := lex(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		var rendering strings.Builder
		end := 0
		for i, tok := range toks {
			if gap := in[end:max(end, min(tok.pos, len(in)))]; tok.pos < end || !blank(gap) {
				t.Fatalf("%q: token %d %+v starts at %d, after %q since the last token's end %d", in, i, tok, tok.pos, gap, end)
			}
			if tok.kind == tokEOF {
				if tok.pos != len(in) || i != len(toks)-1 {
					t.Fatalf("%q: end token %d at %d, want the last token at %d", in, i, tok.pos, len(in))
				}
				break
			}
			spelled := spelling(tok)
			got := in[tok.pos:min(tok.pos+len(spelled), len(in))]
			if got != spelled && (tok.kind != tokKeyword || !strings.EqualFold(got, spelled)) {
				t.Fatalf("%q: token %d %+v is spelled %q, but the input has %q there", in, i, tok, spelled, got)
			}
			if word := tok.kind == tokIdent || tok.kind == tokKeyword; word && (keywords[strings.ToUpper(got)] != "") != (tok.kind == tokKeyword) {
				t.Fatalf("%q: word %q lexed as %+v", in, got, tok)
			}
			end = tok.pos + len(spelled)
			rendering.WriteString(spelled)
			rendering.WriteByte(' ')
		}
		again, err := lex(rendering.String())
		if err != nil {
			t.Fatalf("%q rendered as %q: %v", in, rendering.String(), err)
		}
		if len(again) != len(toks) {
			t.Fatalf("%q rendered as %q: %d tokens, want %d", in, rendering.String(), len(again), len(toks))
		}
		at := 0
		for i, tok := range toks[:len(toks)-1] {
			if want := (token{kind: tok.kind, text: tok.text, pos: at}); again[i] != want {
				t.Fatalf("%q rendered as %q: token %d is %+v, want %+v", in, rendering.String(), i, again[i], want)
			}
			at += len(spelling(tok)) + 1
		}
	}

	for in, want := range map[string]string{
		"SELECT 'unterminated":                 "sql: unterminated string literal at offset 7",
		"SELECT 'ends with an escaped quote''": "sql: unterminated string literal at offset 7",
		"SELECT a, @":                          "sql: unexpected character '@' at offset 10",
	} {
		if _, err := lex(in); fmt.Sprint(err) != want {
			t.Errorf("%q: error %v, want %s", in, err, want)
		}
	}
}

// spelling returns how tok is written: a string literal quoted, each quote
// doubled; any other token as its text.
func spelling(tok token) string {
	if tok.kind == tokString {
		return "'" + strings.ReplaceAll(tok.text, "'", "''") + "'"
	}
	return tok.text
}

// blank reports whether s holds only whitespace and line comments.
func blank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch {
		case strings.IndexByte(" \t\n\r", s[i]) >= 0:
		case strings.HasPrefix(s[i:], "--"):
			if nl := strings.IndexByte(s[i:], '\n'); nl >= 0 {
				i += nl
			} else {
				i = len(s)
			}
		default:
			return false
		}
	}
	return true
}
