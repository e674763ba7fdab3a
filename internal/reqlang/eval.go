package reqlang

import (
	"fmt"
	"math"
	"strings"
)

// Value is the tagged union the evaluator computes: every expression
// yields either a number or a string (network addresses and quoted
// literals are strings).
type Value struct {
	Num   float64
	Str   string
	IsStr bool
}

// NumValue wraps a float64.
func NumValue(v float64) Value { return Value{Num: v} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Str: s, IsStr: true} }

// Truthy reports the boolean reading of a value: a number is true
// when non-zero, a string when non-empty.
func (v Value) Truthy() bool {
	if v.IsStr {
		return v.Str != ""
	}
	return v.Num != 0
}

func (v Value) String() string {
	if v.IsStr {
		return fmt.Sprintf("%q", v.Str)
	}
	return fmt.Sprintf("%g", v.Num)
}

// Env holds the variable bindings of one Program for one candidate
// server. Every identifier was resolved to a slot at Parse, so an Env
// is a value array plus defined-bitmasks: binding a server's status
// variables is one indexed store each, and the evaluator reads them
// back by index — no map is cleared, assigned or probed per record.
// Slot i binds Program.MentionedVars()[i].
//
// An Env also carries the evaluator's scratch (temporaries, user
// parameters, the host lists a Result returns), so a caller that
// reuses one Env across a whole selection allocates nothing per
// record. An Env serves one goroutine at a time.
type Env struct {
	prog *Program
	// vals holds one Value per variable slot: the server-side binding
	// when the slot's bound bit is set, else the temporary assigned
	// during the current evaluation when its temp bit is set.
	vals  []Value
	bound mask
	temp  mask
	// uvals/uset are the user-parameter slots, in name order.
	uvals []Value
	uset  mask

	denied, preferred []string
}

// mask is a small bitset over slots.
type mask []uint64

func (m mask) has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func (m mask) set(i int)      { m[i>>6] |= 1 << (uint(i) & 63) }

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewEnv returns an environment sized for the program, every slot
// unbound.
func (p *Program) NewEnv() *Env {
	e := &Env{}
	e.Bind(p)
	return e
}

// Bind re-targets the environment at a program, reusing its storage,
// and leaves every slot unbound. A pooled environment is bound once
// per selection.
func (e *Env) Bind(p *Program) {
	words := (len(p.vars) + 63) / 64
	e.prog = p
	e.vals = resize(e.vals, len(p.vars))
	e.bound = resize(e.bound, words)
	e.temp = resize(e.temp, words)
	e.uvals = resize(e.uvals, len(p.uparams))
	e.uset = resize(e.uset, (len(p.uparams)+63)/64)
	e.Reset()
}

// Reset unbinds every server-side slot, ready for the next record.
func (e *Env) Reset() { clear(e.bound) }

// Set binds a numeric server-side variable by slot.
func (e *Env) Set(slot int, v float64) {
	e.vals[slot] = Value{Num: v}
	e.bound.set(slot)
}

// EvalError is a runtime evaluation failure (division by zero, type
// misuse, unknown function).
type EvalError struct {
	Line int
	Stmt string
	Msg  string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("reqlang: line %d (%s): %s", e.Line, e.Stmt, e.Msg)
}

// undefinedError marks use of a variable no one defined. It is split
// from EvalError because the thesis gives it special semantics: an
// undefined variable inside a *logical* statement makes that
// statement false rather than aborting the evaluation.
type undefinedError struct {
	name string
}

func (e *undefinedError) Error() string {
	return fmt.Sprintf("undefined variable %q", e.name)
}

// Result is the outcome of evaluating a Program against one server.
type Result struct {
	// Qualified is true when every logical statement evaluated true.
	Qualified bool
	// Denied and Preferred collect the user-side host parameters
	// (user_denied_hostN / user_preferred_hostN assignments), in slot
	// (name) order. They alias the Env's scratch and are valid until
	// the next evaluation against that Env.
	Denied    []string
	Preferred []string
	// Score is the value of the last non-logical, non-assignment
	// statement, used by the rank-by-expression option.
	Score    float64
	HasScore bool
	// FailedLine is the first logical statement that evaluated false
	// (0 when none did); useful for explaining rejections.
	FailedLine int
	// Err is the first hard evaluation error, if any. A hard error
	// disqualifies the server.
	Err error
}

const (
	deniedPrefix    = "user_denied_host"
	preferredPrefix = "user_preferred_host"
)

// IsUserParam reports whether name is one of the user-side variables
// (Appendix B.2): the denied/preferred host slots.
func IsUserParam(name string) bool {
	return strings.HasPrefix(name, deniedPrefix) || strings.HasPrefix(name, preferredPrefix)
}

// Eval runs the program against one server's environment, following
// the Fig 4.2 semantics: statements run top to bottom; each logical
// statement must be true for the server to qualify; assignments to
// user-side parameters record denied/preferred hosts; temporary
// variables persist across lines within one evaluation. A nil env
// evaluates with every server-side variable undefined.
func (p *Program) Eval(env *Env) Result { return p.EvalFrom(env, 0) }

// EvalFrom evaluates the program starting at statement index from,
// with identical semantics to Eval for the statements it runs. The
// selection planner uses it for residual evaluation: when the index
// has already proved a candidate's first `from` statements true —
// they were pure conjunctions of satisfied constraints, with no
// assignments, scores or possible hard errors — resuming at the
// residual yields exactly the full evaluation's Result.
func (p *Program) EvalFrom(env *Env, from int) Result {
	if from < 0 {
		from = 0
	}
	if env == nil {
		env = p.NewEnv()
	} else if env.prog != p {
		// Slots are per program; bindings made for another one mean
		// nothing here.
		env.Bind(p)
	}
	clear(env.temp)
	clear(env.uset)
	res := Result{Qualified: true}
	for i := from; i < len(p.Stmts); i++ {
		stmt := &p.Stmts[i]
		v, err := env.eval(stmt.Expr)
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
		if stmt.scores && !v.IsStr {
			res.Score = v.Num
			res.HasScore = true
		}
	}
	// Collect user parameters in slot order (user_preferred_host1
	// before host2, …): the preference ranking the wizard applies
	// follows the order the user numbered the slots.
	env.denied, env.preferred = env.denied[:0], env.preferred[:0]
	for slot := range p.uparams {
		if !env.uset.has(slot) || env.uvals[slot].Str == "" {
			continue
		}
		if p.uparams[slot].denied {
			env.denied = append(env.denied, env.uvals[slot].Str)
		} else {
			env.preferred = append(env.preferred, env.uvals[slot].Str)
		}
	}
	if len(env.denied) > 0 {
		res.Denied = env.denied
	}
	if len(env.preferred) > 0 {
		res.Preferred = env.preferred
	}
	return res
}

// eval walks one AST node. It is the only evaluator: identifiers
// carry the slots Parse resolved them to, so the walk touches arrays,
// never names.
func (e *Env) eval(n node) (Value, error) {
	switch v := n.(type) {
	case *numNode:
		return NumValue(v.val), nil
	case *strNode:
		return StrValue(v.val), nil
	case *parenNode:
		return e.eval(v.x)
	case *varNode:
		return e.lookup(v)
	case *unaryNode:
		x, err := e.eval(v.x)
		if err != nil {
			return Value{}, err
		}
		if x.IsStr {
			return Value{}, fmt.Errorf("cannot negate string %s", x)
		}
		return NumValue(-x.Num), nil
	case *assignNode:
		return e.assign(v)
	case *callNode:
		return e.call(v)
	case *binNode:
		return e.binary(v)
	}
	return Value{}, fmt.Errorf("internal: unknown node %T", n)
}

func (e *Env) lookup(v *varNode) (Value, error) {
	switch v.ref.kind {
	case refUser:
		if e.uset.has(v.ref.slot) {
			return e.uvals[v.ref.slot], nil
		}
		return StrValue(""), nil // unset user param reads as empty
	case refConst:
		return NumValue(v.ref.val), nil
	}
	// A server-side binding shadows a temporary of the same name; a
	// slot with neither is the thesis' uninitialized variable.
	if e.bound.has(v.ref.slot) || e.temp.has(v.ref.slot) {
		return e.vals[v.ref.slot], nil
	}
	return Value{}, v.undef
}

func (e *Env) assign(a *assignNode) (Value, error) {
	// Only a record that defines the variable makes it a server-side
	// parameter; on any other record the same statement creates a
	// temporary.
	serverNum := a.ref.kind == refVar && e.bound.has(a.ref.slot) && !e.vals[a.ref.slot].IsStr
	if serverNum {
		return Value{}, fmt.Errorf("cannot assign to server-side parameter %q", a.name)
	}
	if a.ref.kind == refConst {
		return Value{}, fmt.Errorf("cannot assign to constant %q", a.name)
	}
	v, err := e.eval(a.rhs)
	if err != nil {
		// Thesis convenience: "user_denied_host1 = telesto" names a
		// host with a bare word. An undefined variable on the RHS of
		// a user-parameter assignment is taken as a host string.
		if undef, ok := err.(*undefinedError); ok && a.ref.kind == refUser {
			v = StrValue(undef.name)
		} else {
			return Value{}, err
		}
	}
	if a.ref.kind == refUser {
		if !v.IsStr {
			return Value{}, fmt.Errorf("user parameter %q needs a host name or address, got %s", a.name, v)
		}
		e.uvals[a.ref.slot] = v
		e.uset.set(a.ref.slot)
		return v, nil
	}
	// A bound string attribute keeps shadowing the name, so the
	// temporary would never be read: only an unbound slot stores it.
	if !e.bound.has(a.ref.slot) {
		e.vals[a.ref.slot] = v
		e.temp.set(a.ref.slot)
	}
	return v, nil
}

func boolValue(ok bool) Value {
	if ok {
		return Value{Num: 1}
	}
	return Value{}
}

func (e *Env) binary(b *binNode) (Value, error) {
	l, err := e.eval(b.l)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(b.r)
	if err != nil {
		return Value{}, err
	}
	switch b.op {
	case tokAnd:
		return boolValue(l.Truthy() && r.Truthy()), nil
	case tokOr:
		return boolValue(l.Truthy() || r.Truthy()), nil
	case tokEQ:
		return boolValue(valueEqual(l, r)), nil
	case tokNE:
		return boolValue(!valueEqual(l, r)), nil
	}
	// Remaining operators are numeric-only.
	if l.IsStr || r.IsStr {
		return Value{}, fmt.Errorf("operator %v needs numbers, got %s and %s", b.op, l, r)
	}
	switch b.op {
	case tokLT:
		return boolValue(l.Num < r.Num), nil
	case tokLE:
		return boolValue(l.Num <= r.Num), nil
	case tokGT:
		return boolValue(l.Num > r.Num), nil
	case tokGE:
		return boolValue(l.Num >= r.Num), nil
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

// valueEqual implements ==: numbers compare numerically, strings
// case-insensitively (host names), and mixed types are never equal.
func valueEqual(l, r Value) bool {
	if l.IsStr != r.IsStr {
		return false
	}
	if l.IsStr {
		return strings.EqualFold(l.Str, r.Str)
	}
	return l.Num == r.Num
}

// constants are the predefined constants of Appendix B.3.
var constants = map[string]float64{
	"pi":    math.Pi,
	"e":     math.E,
	"true":  1,
	"false": 0,
}

// maxArity is the widest built-in; call evaluates arguments into a
// fixed array of this size so a function call allocates nothing.
const maxArity = 2

// builtin is a predefined math function (Appendix B.4). fn reads
// a[:arity].
type builtin struct {
	arity int
	fn    func(a [maxArity]float64) (float64, error)
}

func unary(f func(float64) float64) *builtin {
	return &builtin{arity: 1, fn: func(a [maxArity]float64) (float64, error) { return f(a[0]), nil }}
}

func binaryFn(f func(x, y float64) float64) *builtin {
	return &builtin{arity: 2, fn: func(a [maxArity]float64) (float64, error) { return f(a[0], a[1]), nil }}
}

func positive(name string, strict bool, f func(float64) float64) *builtin {
	return &builtin{arity: 1, fn: func(a [maxArity]float64) (float64, error) {
		if a[0] < 0 || strict && a[0] == 0 {
			kind := "negative"
			if strict {
				kind = "non-positive"
			}
			return 0, fmt.Errorf("%s of %s number %g", name, kind, a[0])
		}
		return f(a[0]), nil
	}}
}

var builtins = map[string]*builtin{
	"sin":   unary(math.Sin),
	"cos":   unary(math.Cos),
	"tan":   unary(math.Tan),
	"atan":  unary(math.Atan),
	"exp":   unary(math.Exp),
	"sqrt":  positive("sqrt", false, math.Sqrt),
	"abs":   unary(math.Abs),
	"floor": unary(math.Floor),
	"ceil":  unary(math.Ceil),
	"int":   unary(math.Trunc),
	"log":   positive("log", true, math.Log),
	"log10": positive("log10", true, math.Log10),
	"pow":   binaryFn(math.Pow),
	"min":   binaryFn(math.Min),
	"max":   binaryFn(math.Max),
}

// Builtins lists the available function names, for documentation and
// error messages.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	return names
}

func (e *Env) call(c *callNode) (Value, error) {
	b := c.builtin
	if b == nil {
		return Value{}, fmt.Errorf("unknown function %q", c.fn)
	}
	if len(c.args) != b.arity {
		return Value{}, fmt.Errorf("%s takes %d argument(s), got %d", c.fn, b.arity, len(c.args))
	}
	var args [maxArity]float64
	for i, a := range c.args {
		v, err := e.eval(a)
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
