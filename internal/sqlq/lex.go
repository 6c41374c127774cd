// Package sqlq implements the SQL-92 subset that backs the registry's
// AdhocQuery protocol. SQL-92 is "the preferred query syntax, used
// pervasively in freebXML Registry" (thesis §2.2.3), so the QueryManager's
// discovery path is real SQL over the registry's logical tables rather
// than hand-rolled filters.
//
// Supported grammar:
//
//	SELECT select_list FROM table [alias]
//	    [WHERE predicate] [ORDER BY column [ASC|DESC], ...]
//	    [LIMIT n [OFFSET m]]
//
//	select_list := * | column [, column ...]
//	predicate   := comparisons with = <> != < <= > >=, LIKE, IN (...),
//	               IS [NOT] NULL, NOT, AND, OR, parentheses
//	values      := 'strings', numbers, $named or :named parameters
//
// Identifiers may be alias-qualified (s.name). Matching for LIKE uses the
// same case-insensitive %/_ semantics as the store's name index. Queries
// arrive from the network, so a predicate may hold at most maxConnectives
// NOTs, ANDs, ORs and parenthesised groups.
package sqlq

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokParam  // $name or :name
	tokSymbol // punctuation and operators
)

// token is one lexeme.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep their case
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognized by the parser (always upper-case here).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "LIKE": true, "IN": true, "IS": true, "NULL": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "DISTINCT": true,
}

// lexer scans a query string into tokens.
type lexer struct {
	src string
	pos int
}

// Error is a positioned query error.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("sqlq: at offset %d: %s", e.Pos, e.Msg) }

func errf(pos int, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes the whole query.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString()
	case c == '$' || c == ':':
		l.pos++
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start+1 {
			return token{}, errf(start, "bare %q is not a parameter", string(c))
		}
		return token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start}, nil
	case isDigit(c):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if up := strings.ToUpper(word); keywords[up] {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	default:
		// Multi-byte operators first.
		for _, op := range []string{"<>", "!=", "<=", ">="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				return token{kind: tokSymbol, text: op, pos: start}, nil
			}
		}
		switch c {
		case '=', '<', '>', '(', ')', ',', '*', '.':
			l.pos++
			return token{kind: tokSymbol, text: string(c), pos: start}, nil
		}
		return token{}, errf(start, "unexpected character %q", string(rune(c)))
	}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, errf(start, "unterminated string literal")
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}
func isIdentByte(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}
