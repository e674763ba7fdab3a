package reqlang

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file keeps the pre-slot evaluator — map-backed bindings, names
// resolved per lookup — verbatim as a test-only reference. The slot
// evaluator in eval.go must agree with it on every program and
// environment (see slot_differential_test.go); it is the oracle for
// the thesis rules the slot compilation must not bend.

// refEnv is the map-backed environment the reference evaluates
// against.
type refEnv struct {
	Params    map[string]float64
	StrParams map[string]string
}

// refState carries per-evaluation mutable bindings.
type refState struct {
	env     *refEnv
	temps   map[string]Value
	uparams map[string]Value
}

// refEvalFrom is the pre-slot Program.EvalFrom.
func refEvalFrom(p *Program, env *refEnv, from int) Result {
	if from < 0 {
		from = 0
	}
	st := &refState{env: env}
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
			if !v.Truthy() && res.Qualified {
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
		if _, isAssign := expr.(*assignNode); !isAssign && !v.IsStr {
			res.Score = v.Num
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
		if !v.IsStr || v.Str == "" {
			continue
		}
		if strings.HasPrefix(name, deniedPrefix) {
			res.Denied = append(res.Denied, v.Str)
		} else {
			res.Preferred = append(res.Preferred, v.Str)
		}
	}
	return res
}

func (st *refState) eval(n node) (Value, error) {
	switch v := n.(type) {
	case *numNode:
		return NumValue(v.val), nil
	case *strNode:
		return StrValue(v.val), nil
	case *parenNode:
		return st.eval(v.x)
	case *varNode:
		return st.lookup(v.name)
	case *unaryNode:
		x, err := st.eval(v.x)
		if err != nil {
			return Value{}, err
		}
		if x.IsStr {
			return Value{}, fmt.Errorf("cannot negate string %s", x)
		}
		return NumValue(-x.Num), nil
	case *assignNode:
		return st.assign(v)
	case *callNode:
		return st.call(v)
	case *binNode:
		return st.binary(v)
	}
	return Value{}, fmt.Errorf("internal: unknown node %T", n)
}

func (st *refState) lookup(name string) (Value, error) {
	if IsUserParam(name) {
		if v, ok := st.uparams[name]; ok {
			return v, nil
		}
		return StrValue(""), nil // unset user param reads as empty
	}
	if st.env != nil {
		if v, ok := st.env.Params[name]; ok {
			return NumValue(v), nil
		}
		if s, ok := st.env.StrParams[name]; ok {
			return StrValue(s), nil
		}
	}
	if c, ok := constants[name]; ok {
		return NumValue(c), nil
	}
	if v, ok := st.temps[name]; ok {
		return v, nil
	}
	return Value{}, &undefinedError{name: name}
}

func (st *refState) assign(a *assignNode) (Value, error) {
	if st.env != nil {
		if _, isParam := st.env.Params[a.name]; isParam {
			return Value{}, fmt.Errorf("cannot assign to server-side parameter %q", a.name)
		}
	}
	if _, isConst := constants[a.name]; isConst {
		return Value{}, fmt.Errorf("cannot assign to constant %q", a.name)
	}
	v, err := st.eval(a.rhs)
	if err != nil {
		// Thesis convenience: "user_denied_host1 = telesto" names a
		// host with a bare word. An undefined variable on the RHS of
		// a user-parameter assignment is taken as a host string.
		if undef, ok := err.(*undefinedError); ok && IsUserParam(a.name) {
			v = StrValue(undef.name)
		} else {
			return Value{}, err
		}
	}
	if IsUserParam(a.name) {
		if !v.IsStr {
			return Value{}, fmt.Errorf("user parameter %q needs a host name or address, got %s", a.name, v)
		}
		if st.uparams == nil {
			st.uparams = make(map[string]Value, 4)
		}
		st.uparams[a.name] = v
		return v, nil
	}
	if st.temps == nil {
		st.temps = make(map[string]Value, 4)
	}
	st.temps[a.name] = v
	return v, nil
}

func (st *refState) binary(b *binNode) (Value, error) {
	l, err := st.eval(b.l)
	if err != nil {
		return Value{}, err
	}
	r, err := st.eval(b.r)
	if err != nil {
		return Value{}, err
	}
	boolVal := func(ok bool) Value {
		if ok {
			return NumValue(1)
		}
		return NumValue(0)
	}
	switch b.op {
	case tokAnd:
		return boolVal(l.Truthy() && r.Truthy()), nil
	case tokOr:
		return boolVal(l.Truthy() || r.Truthy()), nil
	case tokEQ:
		return boolVal(valueEqual(l, r)), nil
	case tokNE:
		return boolVal(!valueEqual(l, r)), nil
	}
	// Remaining operators are numeric-only.
	if l.IsStr || r.IsStr {
		return Value{}, fmt.Errorf("operator %v needs numbers, got %s and %s", b.op, l, r)
	}
	switch b.op {
	case tokLT:
		return boolVal(l.Num < r.Num), nil
	case tokLE:
		return boolVal(l.Num <= r.Num), nil
	case tokGT:
		return boolVal(l.Num > r.Num), nil
	case tokGE:
		return boolVal(l.Num >= r.Num), nil
	case tokPlus:
		return NumValue(l.Num + r.Num), nil
	case tokMinus:
		return NumValue(l.Num - r.Num), nil
	case tokStar:
		return NumValue(l.Num * r.Num), nil
	case tokSlash:
		if r.Num == 0 {
			return Value{}, fmt.Errorf("division by 0")
		}
		return NumValue(l.Num / r.Num), nil
	case tokCaret:
		return NumValue(math.Pow(l.Num, r.Num)), nil
	}
	return Value{}, fmt.Errorf("internal: unknown binary operator %v", b.op)
}

func (st *refState) call(c *callNode) (Value, error) {
	b, ok := builtins[c.fn]
	if !ok {
		return Value{}, fmt.Errorf("unknown function %q", c.fn)
	}
	if len(c.args) != b.arity {
		return Value{}, fmt.Errorf("%s takes %d argument(s), got %d", c.fn, b.arity, len(c.args))
	}
	var args [maxArity]float64
	for i, a := range c.args {
		v, err := st.eval(a)
		if err != nil {
			return Value{}, err
		}
		if v.IsStr {
			return Value{}, fmt.Errorf("%s needs numeric arguments, got %s", c.fn, v)
		}
		args[i] = v.Num
	}
	out, err := b.fn(args)
	if err != nil {
		return Value{}, err
	}
	return NumValue(out), nil
}
