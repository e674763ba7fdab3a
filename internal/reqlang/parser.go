package reqlang

import (
	"fmt"
	"strings"
)

// node is one AST vertex. Nodes remember their source position so
// evaluation errors can point at the offending statement.
type node interface {
	pos() (line, col int)
}

type numNode struct {
	val       float64
	line, col int
}

// strNode is a string literal or a NETADDR (dotted quad / domain
// name); both evaluate to string values.
type strNode struct {
	val       string
	line, col int
}

type varNode struct {
	name      string
	line, col int
}

type assignNode struct {
	name      string
	rhs       node
	line, col int
}

type unaryNode struct {
	x         node
	line, col int
}

type binNode struct {
	op        tokenKind
	l, r      node
	line, col int
}

type callNode struct {
	fn        string
	args      []node
	line, col int
}

type parenNode struct {
	x         node
	line, col int
}

func (n *numNode) pos() (int, int)    { return n.line, n.col }
func (n *strNode) pos() (int, int)    { return n.line, n.col }
func (n *varNode) pos() (int, int)    { return n.line, n.col }
func (n *assignNode) pos() (int, int) { return n.line, n.col }
func (n *unaryNode) pos() (int, int)  { return n.line, n.col }
func (n *binNode) pos() (int, int)    { return n.line, n.col }
func (n *callNode) pos() (int, int)   { return n.line, n.col }
func (n *parenNode) pos() (int, int)  { return n.line, n.col }

// isLogical reports whether a node is a logical statement per the Fig
// 4.2 semantics: its main (top-level) operator is a logical operator.
// Parentheses do not change the logic flag; everything else —
// numbers, variables, arithmetic, assignment, function calls — is
// non-logical.
func isLogical(n node) bool {
	switch v := n.(type) {
	case *binNode:
		switch v.op {
		case tokAnd, tokOr, tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE:
			return true
		}
		return false
	case *parenNode:
		return isLogical(v.x)
	}
	return false
}

// Statement is one parsed requirement line.
type Statement struct {
	Expr    node
	Logical bool
	Line    int
	Src     string // the raw source line, for diagnostics
	// scores marks a non-logical statement that is not an assignment:
	// its numeric value is the program's score so far.
	scores bool
}

// Program is a parsed requirement, ready to evaluate against many
// server status records.
type Program struct {
	Stmts []Statement
	src   string

	// Variable metadata resolved once at parse time, so the
	// per-request and per-server hot paths never re-walk the AST.
	free      []string // free variables, sorted
	mentioned []string // read or assigned identifiers, sorted
	// Slot tables: vars is mentioned followed by the bare host words
	// of user-parameter assignments (slots nobody binds); uparams is
	// the user-side parameters in name order, the order their hosts
	// are reported in.
	vars    []slot
	uparams []uparam

	// The flat form Run interprets (compile.go): the AST above is
	// walked at Parse only. Statement i's instructions start at
	// start[i]; start has one more entry, len(code). A string is its
	// index into strs ("" first), and == compares class[i], the index
	// of the first string EqualFold to strs[i].
	code   []instr
	start  []int32
	consts []constReg
	nregs  int
	strs   []string
	class  []int32
}

// slot is a named register: a variable or a user-side parameter.
type slot struct {
	name string
	reg  int32
}

type uparam struct {
	slot
	denied bool // user_denied_host*, else user_preferred_host*
}

// Source returns the original requirement text.
func (p *Program) Source() string { return p.src }

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token    { return p.toks[p.pos] }
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return token{}, &SyntaxError{Line: t.line, Col: t.col,
			Msg: fmt.Sprintf("expected %v, found %v", k, t.kind)}
	}
	return p.advance(), nil
}

// Parse compiles a requirement text into a Program. Parsing is
// independent of any server's status; the same Program is evaluated
// once per candidate server.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	lines := strings.Split(src, "\n")
	prog := &Program{src: src}
	for {
		// Skip blank lines.
		for p.peek().kind == tokNewline {
			p.advance()
		}
		if p.peek().kind == tokEOF {
			break
		}
		start := p.peek()
		expr, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		// A statement ends at a newline or at EOF.
		switch t := p.peek(); t.kind {
		case tokNewline:
			p.advance()
		case tokEOF:
		default:
			return nil, &SyntaxError{Line: t.line, Col: t.col,
				Msg: fmt.Sprintf("unexpected %v after expression", t.kind)}
		}
		raw := ""
		if start.line-1 < len(lines) {
			raw = strings.TrimSpace(lines[start.line-1])
		}
		logical := isLogical(expr)
		_, assigns := stripParens(expr).(*assignNode)
		prog.Stmts = append(prog.Stmts, Statement{
			Expr:    expr,
			Logical: logical,
			Line:    start.line,
			Src:     raw,
			scores:  !logical && !assigns,
		})
	}
	prog.compile()
	return prog, nil
}

// Binary operator precedence, low to high. '^' is handled separately
// because it is right-associative.
var binPrec = map[tokenKind]int{
	tokOr:    1,
	tokAnd:   2,
	tokEQ:    3,
	tokNE:    3,
	tokLT:    3,
	tokLE:    3,
	tokGT:    3,
	tokGE:    3,
	tokPlus:  4,
	tokMinus: 4,
	tokStar:  5,
	tokSlash: 5,
	tokCaret: 6,
}

// parseExpr is a precedence climber over binPrec.
func (p *parser) parseExpr(minPrec int) (node, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		prec, ok := binPrec[t.kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		nextMin := prec + 1
		if t.kind == tokCaret { // right-associative
			nextMin = prec
		}
		rhs, err := p.parseExpr(nextMin)
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: t.kind, l: lhs, r: rhs, line: t.line, col: t.col}
	}
}

func (p *parser) parseUnary() (node, error) {
	if t := p.peek(); t.kind == tokMinus {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{x: x, line: t.line, col: t.col}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		return &numNode{val: t.num, line: t.line, col: t.col}, nil
	case tokString, tokNetAddr:
		p.advance()
		return &strNode{val: t.text, line: t.line, col: t.col}, nil
	case tokLParen:
		p.advance()
		x, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &parenNode{x: x, line: t.line, col: t.col}, nil
	case tokIdent:
		p.advance()
		switch p.peek().kind {
		case tokLParen: // built-in function call
			p.advance()
			var args []node
			if p.peek().kind != tokRParen {
				for {
					a, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind != tokComma {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &callNode{fn: t.text, args: args, line: t.line, col: t.col}, nil
		case tokAssign:
			p.advance()
			rhs, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			return &assignNode{name: t.text, rhs: rhs, line: t.line, col: t.col}, nil
		}
		return &varNode{name: t.text, line: t.line, col: t.col}, nil
	}
	return nil, &SyntaxError{Line: t.line, Col: t.col,
		Msg: fmt.Sprintf("unexpected %v at start of expression", t.kind)}
}
