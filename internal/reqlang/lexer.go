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
	tokLParen
	tokRParen
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokAssign
	tokAnd // &&
	tokOr  // ||
	tokEQ  // ==
	tokNE  // !=
	tokLT  // <
	tokLE  // <=
	tokGT  // >
	tokGE  // >=
	tokComma
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "newline"
	case tokNumber:
		return "number"
	case tokIdent:
		return "identifier"
	case tokNetAddr:
		return "network address"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokAssign:
		return "'='"
	case tokAnd:
		return "'&&'"
	case tokOr:
		return "'||'"
	case tokEQ:
		return "'=='"
	case tokNE:
		return "'!='"
	case tokLT:
		return "'<'"
	case tokLE:
		return "'<='"
	case tokGT:
		return "'>'"
	case tokGE:
		return "'>='"
	case tokComma:
		return "','"
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string  // raw text for ident/netaddr/string
	num  float64 // value for tokNumber
	line int
	col  int
}

// SyntaxError reports a lexical or grammatical problem with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("reqlang: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

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
	for l.pos < len(l.src) {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' {
			l.advance()
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	tok := func(k tokenKind) (token, error) {
		return token{kind: k, line: line, col: col}, nil
	}
	c := l.advance()
	switch c {
	case '\n':
		return tok(tokNewline)
	case '(':
		return tok(tokLParen)
	case ')':
		return tok(tokRParen)
	case '+':
		return tok(tokPlus)
	case '-':
		return tok(tokMinus)
	case '*':
		return tok(tokStar)
	case '/':
		return tok(tokSlash)
	case '^':
		return tok(tokCaret)
	case ',':
		return tok(tokComma)
	case '=':
		if l.peek() == '=' {
			l.advance()
			return tok(tokEQ)
		}
		return tok(tokAssign)
	case '!':
		if l.peek() == '=' {
			l.advance()
			return tok(tokNE)
		}
		return token{}, l.errorf("unexpected '!' (only '!=' is defined)")
	case '<':
		if l.peek() == '=' {
			l.advance()
			return tok(tokLE)
		}
		return tok(tokLT)
	case '>':
		if l.peek() == '=' {
			l.advance()
			return tok(tokGE)
		}
		return tok(tokGT)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return tok(tokAnd)
		}
		return token{}, l.errorf("unexpected '&' (only '&&' is defined)")
	case '|':
		if l.peek() == '|' {
			l.advance()
			return tok(tokOr)
		}
		return token{}, l.errorf("unexpected '|' (only '||' is defined)")
	case '"':
		var b strings.Builder
		for {
			if l.pos >= len(l.src) || l.peek() == '\n' {
				return token{}, l.errorf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			b.WriteByte(ch)
		}
		return token{kind: tokString, text: b.String(), line: line, col: col}, nil
	}
	if isDigit(c) {
		return l.scanNumberOrAddr(c, line, col)
	}
	if isAlpha(c) {
		return l.scanIdentOrAddr(c, line, col)
	}
	return token{}, l.errorf("unexpected character %q", c)
}

// scanNumberOrAddr handles both NUMBER ([0-9]+ or [0-9]+.[0-9]+) and
// the dotted-quad form of NETADDR.
func (l *lexer) scanNumberOrAddr(first byte, line, col int) (token, error) {
	var b strings.Builder
	b.WriteByte(first)
	dots := 0
	for l.pos < len(l.src) {
		c := l.peek()
		if isDigit(c) {
			b.WriteByte(l.advance())
			continue
		}
		if c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			dots++
			b.WriteByte(l.advance())
			continue
		}
		break
	}
	text := b.String()
	switch dots {
	case 0, 1:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("bad number %q", text)}
		}
		return token{kind: tokNumber, num: v, text: text, line: line, col: col}, nil
	case 3:
		return token{kind: tokNetAddr, text: text, line: line, col: col}, nil
	}
	return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("%q is neither a number nor a dotted-quad address", text)}
}

// scanIdentOrAddr handles identifiers and domain-name NETADDRs: an
// identifier containing a '.' is a network address (Fig 4.1).
func (l *lexer) scanIdentOrAddr(first byte, line, col int) (token, error) {
	var b strings.Builder
	b.WriteByte(first)
	isAddr := false
	for l.pos < len(l.src) {
		c := l.peek()
		if isIdentC(c) {
			b.WriteByte(l.advance())
			continue
		}
		// A dot continues the token only when followed by a name
		// character, so "a.b " parses as one address while a trailing
		// dot stays out of the token. '-' continues the token only
		// once a dot has been seen (inside a domain name): a bare
		// "a-b" must stay a subtraction, but "titan-x.lab" is a host.
		// Bare hyphenated host names need quotes: "titan-x".
		if (c == '.' || (c == '-' && isAddr)) && l.pos+1 < len(l.src) && netAddrC(l.src[l.pos+1]) && l.src[l.pos+1] != '.' {
			if c == '.' {
				isAddr = true
			}
			b.WriteByte(l.advance())
			continue
		}
		break
	}
	kind := tokIdent
	if isAddr {
		kind = tokNetAddr
	}
	return token{kind: kind, text: b.String(), line: line, col: col}, nil
}

// lexAll tokenises the whole source.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
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
