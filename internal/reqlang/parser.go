package reqlang

import "strings"

// node is one AST vertex: one of the *...Node types below. Errors point
// at a statement's line, so nodes keep no position.
type node interface{}

type numNode struct{ val float64 }

// strNode is a string literal or a NETADDR (dotted quad / domain
// name); both evaluate to string values.
type strNode struct{ val string }

type varNode struct{ name string }

type assignNode struct {
	name string
	rhs  node
}

type unaryNode struct{ x node }

type binNode struct {
	op   tokenKind
	l, r node
}

type callNode struct {
	fn   string
	args []node
}

type parenNode struct{ x node }

// isLogical reports whether a node is a logical statement per the Fig
// 4.2 semantics: its main (top-level) operator is a logical operator.
// Parentheses do not change the logic flag; everything else —
// numbers, variables, arithmetic, assignment, function calls — is
// non-logical.
func isLogical(n node) bool {
	switch v := n.(type) {
	case *binNode:
		return operators[v.op].prec <= operators[tokEQ].prec // no tighter than a comparison
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

func (p *parser) expect(k tokenKind) error {
	if t := p.advance(); t.kind != k {
		return errorf(t, "expected %v, found %v", k, t.kind)
	}
	return nil
}

// Parse compiles a requirement text into a Program. Parsing is
// independent of any server's status; the same Program is evaluated
// once per candidate server. The Program keeps a copy of src, never
// the caller's bytes: a caller may parse a view of a buffer it reuses.
func Parse(src string) (*Program, error) {
	src = strings.Clone(src)
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	lines := strings.Split(src, "\n")
	prog := &Program{src: src, Stmts: make([]Statement, 0, len(lines))}
	for t := p.peek(); t.kind != tokEOF; t = p.peek() {
		if t.kind == tokNewline { // a statement's end, or a blank line
			p.advance()
			continue
		}
		expr, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if end := p.peek(); end.kind != tokNewline && end.kind != tokEOF {
			return nil, errorf(end, "unexpected %v after expression", end.kind)
		}
		logical := isLogical(expr)
		_, assigns := stripParens(expr).(*assignNode)
		prog.Stmts = append(prog.Stmts, Statement{
			Expr:    expr,
			Logical: logical,
			Line:    t.line,
			Src:     strings.TrimSpace(lines[t.line-1]),
			scores:  !logical && !assigns,
		})
	}
	prog.compile()
	return prog, nil
}

// parseExpr is a precedence climber over the operators table: it
// takes binary operators binding at least as tightly as minPrec.
func (p *parser) parseExpr(minPrec int) (node, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek().kind
		prec := operators[op].prec
		if prec == 0 || prec < minPrec { // 0: not a binary operator
			return lhs, nil
		}
		p.advance()
		if op != tokCaret { // '^' is right-associative
			prec++
		}
		rhs, err := p.parseExpr(prec)
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: op, l: lhs, r: rhs}
	}
}

func (p *parser) parseUnary() (node, error) {
	if p.peek().kind == tokMinus {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		return &numNode{val: t.num}, nil
	case tokString, tokNetAddr:
		return &strNode{val: t.text}, nil
	case tokLParen:
		x, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &parenNode{x: x}, nil
	case tokIdent:
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
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &callNode{fn: t.text, args: args}, nil
		case tokAssign:
			p.advance()
			rhs, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			return &assignNode{name: t.text, rhs: rhs}, nil
		}
		return &varNode{name: t.text}, nil
	}
	return nil, errorf(t, "unexpected %v at start of expression", t.kind)
}
