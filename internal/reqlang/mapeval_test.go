package reqlang

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file keeps the pre-slot evaluator — map-backed bindings, names
// resolved per lookup, strings as Go strings — as a test-only
// reference. The slot evaluator in eval.go must agree with it on every
// program and environment (see slot_differential_test.go); it is the
// oracle for the thesis rules the slot compilation must not bend, so
// it shares no value, truthiness or equality code with eval.go.

// refValue is the reference's tagged union: every expression yields a
// number or a string (network addresses and quoted literals are
// strings).
type refValue struct {
	num   float64
	str   string
	isStr bool
}

func refNum(v float64) refValue { return refValue{num: v} }
func refStr(s string) refValue  { return refValue{str: s, isStr: true} }

// truthy is the boolean reading of a value: a number is true when
// non-zero, a string when non-empty.
func (v refValue) truthy() bool {
	if v.isStr {
		return v.str != ""
	}
	return v.num != 0
}

func (v refValue) String() string {
	if v.isStr {
		return fmt.Sprintf("%q", v.str)
	}
	return fmt.Sprintf("%g", v.num)
}

// refEqual implements ==: numbers compare numerically, strings
// case-insensitively (host names), and mixed types are never equal.
func refEqual(l, r refValue) bool {
	if l.isStr != r.isStr {
		return false
	}
	if l.isStr {
		return strings.EqualFold(l.str, r.str)
	}
	return l.num == r.num
}

// undefinedError marks use of a variable no one defined. It is split
// from the other errors because the thesis gives it special semantics:
// an undefined variable inside a *logical* statement makes that
// statement false rather than aborting the evaluation.
type undefinedError struct {
	name string
}

func (e *undefinedError) Error() string {
	return fmt.Sprintf("undefined variable %q", e.name)
}

// refState carries per-evaluation mutable bindings. A record binds
// numbers only, by name.
type refState struct {
	params  map[string]float64
	temps   map[string]refValue
	uparams map[string]refValue
}

// refEvalFrom is the pre-slot Program.EvalFrom.
func refEvalFrom(p *Program, params map[string]float64, from int) Result {
	if from < 0 {
		from = 0
	}
	st := &refState{params: params}
	res := Result{Qualified: true}
	for i := from; i < len(p.Stmts); i++ {
		stmt := &p.Stmts[i]
		v, err := st.eval(stmt.Expr)
		if err != nil {
			if _, undef := err.(*undefinedError); undef && stmt.Logical {
				// Thesis rule: an uninitialized variable inside a
				// logical statement makes the statement false.
				res.Qualified = false
				if res.FailedLine == 0 {
					res.FailedLine = stmt.Line
				}
				continue
			}
			res.Qualified = false
			res.Err = &EvalError{Line: stmt.Line, Stmt: stmt.Src, Msg: err.Error()}
			break
		}
		if stmt.Logical {
			if !v.truthy() && res.Qualified {
				res.Qualified = false
				res.FailedLine = stmt.Line
			}
			continue
		}
		expr := stmt.Expr
		for {
			p, ok := expr.(*parenNode)
			if !ok {
				break
			}
			expr = p.x
		}
		if _, isAssign := expr.(*assignNode); !isAssign && !v.isStr {
			res.Score = v.num
			res.HasScore = true
		}
	}
	// Collect user parameters in slot order (user_preferred_host1
	// before host2, …): the preference ranking the wizard applies
	// follows the order the user numbered the slots.
	names := make([]string, 0, len(st.uparams))
	for name := range st.uparams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := st.uparams[name]
		if !v.isStr || v.str == "" {
			continue
		}
		if strings.HasPrefix(name, deniedPrefix) {
			res.Denied = append(res.Denied, v.str)
		} else {
			res.Preferred = append(res.Preferred, v.str)
		}
	}
	return res
}

func (st *refState) eval(n node) (refValue, error) {
	switch v := n.(type) {
	case *numNode:
		return refNum(v.val), nil
	case *strNode:
		return refStr(v.val), nil
	case *parenNode:
		return st.eval(v.x)
	case *varNode:
		return st.lookup(v.name)
	case *unaryNode:
		x, err := st.eval(v.x)
		if err != nil {
			return refValue{}, err
		}
		if x.isStr {
			return refValue{}, fmt.Errorf("cannot negate string %s", x)
		}
		return refNum(-x.num), nil
	case *assignNode:
		return st.assign(v)
	case *callNode:
		return st.call(v)
	case *binNode:
		return st.binary(v)
	}
	return refValue{}, fmt.Errorf("internal: unknown node %T", n)
}

func (st *refState) lookup(name string) (refValue, error) {
	if IsUserParam(name) {
		if v, ok := st.uparams[name]; ok {
			return v, nil
		}
		return refStr(""), nil // unset user param reads as empty
	}
	if v, ok := st.params[name]; ok {
		return refNum(v), nil
	}
	if c, ok := constants[name]; ok {
		return refNum(c), nil
	}
	if v, ok := st.temps[name]; ok {
		return v, nil
	}
	return refValue{}, &undefinedError{name: name}
}

func (st *refState) assign(a *assignNode) (refValue, error) {
	if _, isParam := st.params[a.name]; isParam {
		return refValue{}, fmt.Errorf("cannot assign to server-side parameter %q", a.name)
	}
	if _, isConst := constants[a.name]; isConst {
		return refValue{}, fmt.Errorf("cannot assign to constant %q", a.name)
	}
	v, err := st.eval(a.rhs)
	if err != nil {
		// Thesis convenience: "user_denied_host1 = telesto" names a
		// host with a bare word. An undefined variable on the RHS of
		// a user-parameter assignment is taken as a host string.
		if undef, ok := err.(*undefinedError); ok && IsUserParam(a.name) {
			v = refStr(undef.name)
		} else {
			return refValue{}, err
		}
	}
	if IsUserParam(a.name) {
		if !v.isStr {
			return refValue{}, fmt.Errorf("user parameter %q needs a host name or address, got %s", a.name, v)
		}
		if st.uparams == nil {
			st.uparams = make(map[string]refValue, 4)
		}
		st.uparams[a.name] = v
		return v, nil
	}
	if st.temps == nil {
		st.temps = make(map[string]refValue, 4)
	}
	st.temps[a.name] = v
	return v, nil
}

func (st *refState) binary(b *binNode) (refValue, error) {
	l, err := st.eval(b.l)
	if err != nil {
		return refValue{}, err
	}
	r, err := st.eval(b.r)
	if err != nil {
		return refValue{}, err
	}
	boolVal := func(ok bool) refValue {
		if ok {
			return refNum(1)
		}
		return refNum(0)
	}
	switch b.op {
	case tokAnd:
		return boolVal(l.truthy() && r.truthy()), nil
	case tokOr:
		return boolVal(l.truthy() || r.truthy()), nil
	case tokEQ:
		return boolVal(refEqual(l, r)), nil
	case tokNE:
		return boolVal(!refEqual(l, r)), nil
	}
	// Remaining operators are numeric-only.
	if l.isStr || r.isStr {
		return refValue{}, fmt.Errorf("operator %v needs numbers, got %s and %s", b.op, l, r)
	}
	switch b.op {
	case tokLT:
		return boolVal(l.num < r.num), nil
	case tokLE:
		return boolVal(l.num <= r.num), nil
	case tokGT:
		return boolVal(l.num > r.num), nil
	case tokGE:
		return boolVal(l.num >= r.num), nil
	case tokPlus:
		return refNum(l.num + r.num), nil
	case tokMinus:
		return refNum(l.num - r.num), nil
	case tokStar:
		return refNum(l.num * r.num), nil
	case tokSlash:
		if r.num == 0 {
			return refValue{}, fmt.Errorf("division by 0")
		}
		return refNum(l.num / r.num), nil
	case tokCaret:
		return refNum(math.Pow(l.num, r.num)), nil
	}
	return refValue{}, fmt.Errorf("internal: unknown binary operator %v", b.op)
}

func (st *refState) call(c *callNode) (refValue, error) {
	b, ok := builtins[c.fn]
	if !ok {
		return refValue{}, fmt.Errorf("unknown function %q", c.fn)
	}
	if len(c.args) != b.arity {
		return refValue{}, fmt.Errorf("%s takes %d argument(s), got %d", c.fn, b.arity, len(c.args))
	}
	var args [maxArity]float64
	for i, a := range c.args {
		v, err := st.eval(a)
		if err != nil {
			return refValue{}, err
		}
		if v.isStr {
			return refValue{}, fmt.Errorf("%s needs numeric arguments, got %s", c.fn, v)
		}
		args[i] = v.num
	}
	out, err := b.fn(args)
	if err != nil {
		return refValue{}, err
	}
	return refNum(out), nil
}
