package reqlang

// The planner pass inspects a compiled Program and extracts the
// leading run of statements that are pure conjunctions of
// variable-versus-constant comparisons — the shape an ordered index
// can answer. The wizard's selector intersects those constraints
// against its per-field indexes to obtain a candidate set, then
// evaluates only the residual program (EvalFrom) against survivors.
//
// Extraction is deliberately conservative: a statement that mixes OR,
// !=, arithmetic, function calls, assignments or string operands ends
// the prefix, and a program whose first statement is not extractable
// yields no plan at all — the selector falls back to the full scan,
// preserving the Fig 4.2 semantics exactly.

// CmpOp is an extracted comparison operator: the token kind of one of
// the five comparisons an ordered index can answer (not !=).
type CmpOp uint8

const (
	CmpLT = CmpOp(tokLT)
	CmpLE = CmpOp(tokLE)
	CmpGT = CmpOp(tokGT)
	CmpGE = CmpOp(tokGE)
	CmpEQ = CmpOp(tokEQ)
)

func (o CmpOp) String() string { return operators[o].text }

// flip mirrors an operator across its operands: `0.5 < x` is `x > 0.5`.
func (o CmpOp) flip() CmpOp {
	switch o {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	}
	return o
}

// Constraint is one extracted predicate: Var Op Val must hold for the
// statement at Line to evaluate true. The index answers it as it is.
type Constraint struct {
	Var  string
	Op   CmpOp
	Val  float64
	Line int
}

// Match applies the constraint's comparison to a concrete value. Any
// comparison involving NaN is false, as in evaluation.
func (c Constraint) Match(v float64) bool {
	switch c.Op {
	case CmpLT:
		return v < c.Val
	case CmpLE:
		return v <= c.Val
	case CmpGT:
		return v > c.Val
	case CmpGE:
		return v >= c.Val
	case CmpEQ:
		return v == c.Val
	}
	return false
}

// Filter is Match over a column: it keeps the offsets in at whose
// value col[offset] passes, compacting at in place. The operator is
// decoded once, outside the loop, and an offset costs no branch: which
// way a broad constraint goes is a coin the predictor loses.
func (c Constraint) Filter(at []int, col []float64) []int {
	k, val := 0, c.Val
	switch c.Op {
	case CmpLT:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] < val)
		}
	case CmpLE:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] <= val)
		}
	case CmpGT:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] > val)
		}
	case CmpGE:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] >= val)
		}
	case CmpEQ:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] == val)
		}
	}
	return at[:k]
}

// b2i compiles to a flag read, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Plan is the planner's verdict on a Program: the extracted
// constraints and how many leading statements they fully cover. A
// candidate satisfying every constraint is exactly a candidate whose
// first Prefix statements all evaluate true, so the selector may
// resume evaluation at statement Prefix.
type Plan struct {
	Cons   []Constraint
	Prefix int
}

// Plan extracts the index-resolvable prefix of the program. The
// indexable callback says which variables have (or can have) an
// index; any other variable — user parameters, temporaries, network
// metrics, unknown names — ends extraction, because the index cannot
// know its per-host value. Returns nil when no leading statement is
// extractable.
func (p *Program) Plan(indexable func(string) bool) *Plan {
	if indexable == nil {
		return nil
	}
	var cons []Constraint
	prefix := 0
	for i := range p.Stmts {
		stmt := &p.Stmts[i]
		if !stmt.Logical {
			break
		}
		mark := len(cons)
		if !extractConj(stmt.Expr, stmt.Line, indexable, &cons) {
			cons = cons[:mark]
			break
		}
		prefix++
	}
	if prefix == 0 || len(cons) == 0 {
		return nil
	}
	return &Plan{Cons: cons, Prefix: prefix}
}

// extractConj decomposes an and-tree of comparisons, appending one
// constraint per leaf. Any other node shape fails the statement.
func extractConj(n node, line int, indexable func(string) bool, out *[]Constraint) bool {
	n = stripParens(n)
	b, ok := n.(*binNode)
	if !ok {
		return false
	}
	switch b.op {
	case tokAnd:
		return extractConj(b.l, line, indexable, out) &&
			extractConj(b.r, line, indexable, out)
	case tokLT, tokLE, tokGT, tokGE, tokEQ:
		op := CmpOp(b.op)
		if name, ok := compVar(b.l, indexable); ok {
			if val, ok := litVal(b.r); ok {
				*out = append(*out, Constraint{Var: name, Op: op, Val: val, Line: line})
				return true
			}
			return false
		}
		if val, ok := litVal(b.l); ok {
			if name, ok := compVar(b.r, indexable); ok {
				*out = append(*out, Constraint{Var: name, Op: op.flip(), Val: val, Line: line})
				return true
			}
		}
		return false
	}
	return false
}

func stripParens(n node) node {
	for {
		p, ok := n.(*parenNode)
		if !ok {
			return n
		}
		n = p.x
	}
}

// compVar accepts a bare indexable variable. User parameters never
// qualify (they read as strings), nor do the predefined constants
// (their comparison is host-independent and not worth indexing).
func compVar(n node, indexable func(string) bool) (string, bool) {
	v, ok := stripParens(n).(*varNode)
	if !ok {
		return "", false
	}
	if IsUserParam(v.name) {
		return "", false
	}
	if _, isConst := constants[v.name]; isConst {
		return "", false
	}
	return v.name, indexable(v.name)
}

// litVal accepts a numeric literal, possibly parenthesized or
// negated.
func litVal(n node) (float64, bool) {
	switch v := stripParens(n).(type) {
	case *numNode:
		return v.val, true
	case *unaryNode:
		if x, ok := litVal(v.x); ok {
			return -x, true
		}
	}
	return 0, false
}
