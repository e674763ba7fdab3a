// Package reqlang implements the server-requirement meta language of
// §3.6.1 and §4.3: a small line-oriented expression language in which
// users describe the servers an application needs.
//
// Each non-empty line is a statement. A statement whose top-level
// operator is logical (&&, ||, ==, !=, <, <=, >, >=) is a *logical
// statement*; a server qualifies only if every logical statement in
// the requirement evaluates to true against that server's status
// report. Non-logical statements define temporary variables and carry
// intermediate arithmetic; their values do not gate qualification.
//
// The token rules follow Fig 4.1: '#' starts a comment, dotted words
// and dotted quads are network addresses, identifiers are variables
// (server-side parameters, user-side parameters, or temporaries), and
// the C logical operators are recognised. Two extensions beyond the
// thesis lexer are double-quoted strings (so host names containing
// '-', such as "titan-x", can be written) and the set of built-in math
// functions listed in Appendix B.4.
//
// Parse compiles a requirement to flat register code (compile.go) and
// Run interprets it against a batch of candidate servers at once, one
// instruction across all of them before the next (eval.go); evaluating
// one server is a batch of one. The AST is walked at Parse only — by
// the compiler and the planner's constraint extraction.
package reqlang

import (
	"fmt"
	"strconv"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNewline
	tokNumber
	tokIdent   // variable name: server param, user param, or temp
	tokNetAddr // dotted quad or dotted domain name
	tokString  // double-quoted literal
	// The operators, from here to the end: each is an entry of the
	// operators table.
	tokLParen
	tokRParen
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokAssign
	tokAnd
	tokOr
	tokEQ
	tokNE
	tokLT
	tokLE
	tokGT
	tokGE
	tokComma
)

// operators is the language's one operator table: how each operator
// token is spelled and its binary precedence, low to high (0: not a
// binary operator; '^' is right-associative). The scanner, the
// parser's precedence climb, isLogical and the token names in error
// messages all read it.
var operators = [...]struct {
	text string
	prec int
}{
	tokLParen: {"(", 0},
	tokRParen: {")", 0},
	tokPlus:   {"+", 4},
	tokMinus:  {"-", 4},
	tokStar:   {"*", 5},
	tokSlash:  {"/", 5},
	tokCaret:  {"^", 6},
	tokAssign: {"=", 0},
	tokAnd:    {"&&", 2},
	tokOr:     {"||", 1},
	tokEQ:     {"==", 3},
	tokNE:     {"!=", 3},
	tokLT:     {"<", 3},
	tokLE:     {"<=", 3},
	tokGT:     {">", 3},
	tokGE:     {">=", 3},
	tokComma:  {",", 0},
}

// kindNames names the kinds before the operators, in kind order.
var kindNames = [tokLParen]string{"end of input", "newline", "number", "identifier", "network address", "string"}

func (k tokenKind) String() string {
	if k >= tokLParen {
		return "'" + operators[k].text + "'"
	}
	return kindNames[k]
}

type token struct {
	kind      tokenKind
	text      string  // ident, netaddr, string and number: a slice of the source
	num       float64 // value for tokNumber
	line, col int
}

// SyntaxError reports a lexical or grammatical problem with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("reqlang: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// errorf reports a problem at token t's position.
func errorf(t token, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// lexer scans src from pos; a column is the distance from the first
// byte of the current line.
type lexer struct {
	src                  string
	pos, line, lineStart int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// at is a token positioned at byte offset p of the current line.
func (l *lexer) at(p int) token { return token{line: l.line, col: p - l.lineStart + 1} }

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool  { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentC(c byte) bool { return isAlpha(c) || isDigit(c) || c == '_' }

// netAddrC reports bytes legal inside the tail of a dotted name. The
// thesis pattern is [.a-zA-Z_0-9]*; '-' is added so real host names
// like titan-x.lab parse.
func netAddrC(c byte) bool { return isIdentC(c) || c == '.' || c == '-' }

// next scans one token. Comments and horizontal whitespace are
// consumed silently; '\n' is a token because it terminates statements.
func (l *lexer) next() (token, error) {
	src := l.src
	for l.pos < len(src) && strings.IndexByte(" \t\r", src[l.pos]) >= 0 {
		l.pos++
	}
	if l.pos < len(src) && src[l.pos] == '#' { // a comment runs to the newline
		for l.pos < len(src) && src[l.pos] != '\n' {
			l.pos++
		}
	}
	start, t := l.pos, l.at(l.pos) // tokEOF unless src goes on
	if start == len(src) {
		return t, nil
	}
	switch c := src[start]; {
	case c == '\n':
		l.pos++
		t.kind = tokNewline
		l.line, l.lineStart = l.line+1, l.pos
	case c == '"':
		l.pos++
		for l.pos < len(src) && src[l.pos] != '"' && src[l.pos] != '\n' {
			l.pos++
		}
		if l.pos == len(src) || src[l.pos] == '\n' {
			return token{}, errorf(l.at(l.pos), "unterminated string literal")
		}
		t.kind, t.text = tokString, src[start+1:l.pos]
		l.pos++
	case isDigit(c):
		return l.number(t)
	case isAlpha(c):
		return l.word(t), nil
	default:
		return l.operator(t)
	}
	return t, nil
}

// operator scans the longest operator spelling at pos. A byte that
// only begins one, such as a lone '&', is an error worded from that
// entry; the column of both errors is the byte after the bad one.
func (l *lexer) operator(t token) (token, error) {
	start, longest := l.pos, 0
	for k := tokLParen; int(k) < len(operators); k++ {
		if op := operators[k].text; len(op) > longest && strings.HasPrefix(l.src[start:], op) {
			t.kind, longest = k, len(op)
		}
	}
	if longest > 0 {
		l.pos += longest
		return t, nil
	}
	c := l.src[start]
	for k := tokLParen; int(k) < len(operators); k++ {
		if operators[k].text[0] == c {
			return token{}, errorf(l.at(start+1), "unexpected %q (only %v is defined)", c, k)
		}
	}
	return token{}, errorf(l.at(start+1), "unexpected character %q", c)
}

// number scans NUMBER ([0-9]+ or [0-9]+.[0-9]+) and the dotted-quad
// form of NETADDR.
func (l *lexer) number(t token) (token, error) {
	src, start, dots := l.src, l.pos, 0
	for ; l.pos < len(src); l.pos++ {
		if c := src[l.pos]; c == '.' && l.pos+1 < len(src) && isDigit(src[l.pos+1]) {
			dots++
		} else if !isDigit(c) {
			break
		}
	}
	t.text = src[start:l.pos]
	switch dots {
	case 0, 1:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return token{}, errorf(l.at(start), "bad number %q", t.text)
		}
		t.kind, t.num = tokNumber, v
		return t, nil
	case 3:
		t.kind = tokNetAddr
		return t, nil
	}
	return token{}, errorf(l.at(start), "%q is neither a number nor a dotted-quad address", t.text)
}

// word scans identifiers and domain-name NETADDRs: an identifier
// containing a '.' is a network address (Fig 4.1).
func (l *lexer) word(t token) token {
	src, start := l.src, l.pos
	t.kind = tokIdent
	for ; l.pos < len(src); l.pos++ {
		c := src[l.pos]
		if isIdentC(c) {
			continue
		}
		// A dot continues the token only when followed by a name
		// character, so "a.b " parses as one address while a trailing
		// dot stays out of the token. '-' continues the token only
		// once a dot has been seen (inside a domain name): a bare
		// "a-b" must stay a subtraction, but "titan-x.lab" is a host.
		// Bare hyphenated host names need quotes: "titan-x".
		if !(c == '.' || c == '-' && t.kind == tokNetAddr) || l.pos+1 == len(src) || !netAddrC(src[l.pos+1]) || src[l.pos+1] == '.' {
			break
		}
		if c == '.' {
			t.kind = tokNetAddr
		}
	}
	t.text = src[start:l.pos]
	return t
}

// lexAll tokenises the whole source, into one allocation for most
// requirements: their tokens take four bytes or more apiece.
func lexAll(src string) ([]token, error) {
	l, toks := newLexer(src), make([]token, 0, len(src)/4+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if toks = append(toks, t); t.kind == tokEOF {
			return toks, nil
		}
	}
}
