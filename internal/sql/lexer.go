// Package sql provides a small SQL front end for the ecoDB engine: a
// lexer, a recursive-descent parser, and a binder that lowers parsed
// SELECT statements onto the logical plans in internal/plan. It covers the
// dialect the paper's workloads need — single- and multi-table
// SELECT/JOIN/WHERE/GROUP BY/ORDER BY/LIMIT with arithmetic, comparisons,
// BETWEEN, IN lists and the sum/count/min/max/avg aggregates — so clients
// can drive the engine the way the paper's JDBC clients drove theirs.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * .
	tokOp     // = <> < <= > >= + - /
)

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords maps each keyword of the dialect to itself: a keyword token's
// text is the map's string, so upper-casing a word into a stack buffer to
// look it up allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS",
		"AND", "OR", "NOT", "BETWEEN", "IN", "JOIN", "ON", "ASC", "DESC",
		"SUM", "COUNT", "MIN", "MAX", "AVG", "DATE", "INNER", "TRUE",
		"FALSE", "NULL", "EXPLAIN", "ANALYZE",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the longest keyword's length: a longer word is an
// identifier without a lookup.
const maxKeywordLen = 7

// keyword returns the keyword word spells in any letter case, or "" when
// it spells none. Keywords are ASCII, so a word with any other byte is an
// identifier, as strings.ToUpper would also find.
func keyword(word string) string {
	if len(word) > maxKeywordLen {
		return ""
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return ""
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// lex tokenizes the input. It returns an error with position information
// on any malformed token. Token texts are substrings of the input, or
// keyword constants, except for a string literal with an escaped quote:
// lexing allocates the token slice and little else.
func lex(input string) ([]token, error) {
	n := len(input)
	// Served statements average five or six bytes a token.
	out := make([]token, 0, n/4+2)
	i := 0
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if kw := keyword(word); kw != "" {
				out = append(out, token{kind: tokKeyword, text: kw, pos: start})
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
			var sb strings.Builder // only once a quote is escaped
			from, closed := i, false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteString(input[from : i+1])
						i += 2
						from = i
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			text := input[from:i]
			if sb.Len() > 0 {
				sb.WriteString(text)
				text = sb.String()
			}
			i++ // the closing quote
			out = append(out, token{kind: tokString, text: text, pos: start})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				out = append(out, token{kind: tokOp, text: input[i : i+2], pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokOp, text: input[i : i+1], pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				out = append(out, token{kind: tokOp, text: input[i : i+2], pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokOp, text: input[i : i+1], pos: i})
				i++
			}
		case c == '=' || c == '+' || c == '-' || c == '/':
			out = append(out, token{kind: tokOp, text: input[i : i+1], pos: i})
			i++
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '.' || c == ';':
			out = append(out, token{kind: tokSymbol, text: input[i : i+1], pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: n})
	return out, nil
}
