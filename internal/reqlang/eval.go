package reqlang

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Env is the evaluator's working storage for one Program and one batch
// of candidate servers, the lanes: a column of values per register, so
// the interpreter can run one instruction across every lane before it
// looks at the next. A caller binds a batch by column,
//
//	env.Reset(n)
//	col := env.Col(slot) // slot i binds Program.MentionedVars()[i]
//	for lane := range n { col[lane] = ... }
//	env.Undef(slot, lane) // a lane whose record does not define it
//	prog.Run(env, from)
//
// and reads each lane's outcome back (Qualified, Score, Hosts, Result).
// Evaluating one record (EvalFrom) is a batch of one lane. An Env
// reused across a selection allocates nothing per batch; it serves one
// goroutine at a time.
type Env struct {
	prog *Program
	cap  int // lanes a column can hold
	n    int // lanes of the current batch
	// Register r's lanes are num[r*cap:][:n]: a number, or the index of
	// a string in the program's table. tags says per lane which, where
	// regs[r].num does not already say "a number everywhere"; a variable
	// register's tags are always current.
	num   []float64
	tags  []uint8
	regs  []reg
	lanes []lane
	idle  int // lanes not running

	denied, preferred []string
}

// reg is what the interpreter knows about a register over the whole
// batch, so the common case costs one test per instruction, not one per
// lane.
type reg struct {
	num   bool // every running lane holds a number (for a variable: every lane)
	str   bool // a string literal: every lane holds the same string
	bound bool // a variable some lane's record defines
	dirty bool // a variable assigned since the batch was bound
}

// A lane's tag: 0 is undefined. Only Col binds, so a bound value is a
// number.
const (
	tagNum   uint8 = 1
	tagStr   uint8 = 2
	tagBound uint8 = 4 // the number is the record's, not a temporary: assigning to it is an error
)

// lane is one candidate's progress through the program.
type lane struct {
	state  uint8
	scored bool
	// at is the pc that sent the lane away — an opLoad whose name is the
	// bare word it carries — or stopped it, which words its error.
	at     int32
	until  int32 // away: the pc that takes the lane back
	failed int32 // line of the first false logical statement, 0: none
	score  float64
}

const (
	running uint8 = iota
	away          // left the statement over an undefined variable
	stopped       // hard error
)

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewEnv returns an environment for evaluating the program against one
// record, every slot undefined.
func (p *Program) NewEnv() *Env {
	e := &Env{}
	e.Bind(p, 1)
	e.Reset(1)
	return e
}

// Bind re-targets the environment at a program and a batch capacity,
// reusing its storage. A pooled environment is bound once per
// selection.
func (e *Env) Bind(p *Program, lanes int) {
	if e.prog == p && e.cap == lanes {
		return
	}
	e.prog, e.cap, e.n = p, lanes, 0
	e.num = resize(e.num, p.nregs*lanes)
	e.tags = resize(e.tags, p.nregs*lanes)
	e.regs = resize(e.regs, p.nregs)
	e.lanes = resize(e.lanes, lanes)
	// Literals keep their value for every batch.
	for _, c := range p.consts {
		e.regs[c.reg] = reg{num: !c.str, str: c.str}
		for l := 0; l < lanes; l++ {
			e.put(c.reg, l, c.val, c.str)
		}
	}
}

func (e *Env) col(r int32) []float64 { return e.num[int(r)*e.cap:][:e.n] }
func (e *Env) tag(r int32) []uint8   { return e.tags[int(r)*e.cap:][:e.n] }

// Reset starts a batch of n lanes with every slot undefined in each.
func (e *Env) Reset(n int) {
	e.n = n
	for _, v := range e.prog.vars {
		clear(e.tag(v.reg))
		e.regs[v.reg] = reg{}
	}
}

// Col binds a numeric server-side variable in every lane of the batch
// and returns its column for the caller to fill.
func (e *Env) Col(slot int) []float64 {
	r := e.prog.vars[slot].reg
	fill(e.tag(r), tagNum|tagBound)
	e.regs[r] = reg{num: true, bound: true}
	return e.col(r)
}

// Undef takes back what Col said for one lane: its record does not
// define the variable (no network metrics, no security level).
func (e *Env) Undef(slot, lane int) {
	r := e.prog.vars[slot].reg
	e.tag(r)[lane] = 0
	e.regs[r].num = false
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

// Result is the outcome of evaluating a Program against one server.
type Result struct {
	// Qualified is true when every logical statement evaluated true.
	Qualified bool
	// Denied and Preferred collect the user-side host parameters
	// (user_denied_hostN / user_preferred_hostN assignments), in slot
	// (name) order. They alias the Env's scratch and are valid until
	// the next Result or Hosts call on that Env.
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

// EvalFrom runs the program against one server's environment, starting
// at statement index from, following the Fig 4.2 semantics: statements
// run top to bottom; each logical statement must be true for the server
// to qualify; assignments to user-side parameters record
// denied/preferred hosts; temporary variables persist across lines
// within one evaluation. A nil env evaluates with every server-side
// variable undefined. From 0 is the full evaluation. A later from is
// residual evaluation: when the index has already proved a candidate's
// first from statements true — they were pure conjunctions of satisfied
// constraints, with no assignments, scores or possible hard errors —
// resuming at the residual yields exactly the full evaluation's Result.
// It is Run on a batch whose first lane is the record.
func (p *Program) EvalFrom(env *Env, from int) Result {
	if env == nil || env.prog != p {
		// Slots are per program; bindings made for another one mean
		// nothing here.
		env = p.NewEnv()
	}
	p.Run(env, from)
	return env.Result(0)
}

// Run evaluates the statements from index from on against every lane
// of the batch bound in env: the one interpreter loop. An instruction
// runs across all lanes before the next is looked at. Where its operand
// registers hold a number in every lane that is a loop over float64
// columns; otherwise each runs the same instruction lane by lane,
// looking at every lane's tag. Bindings survive a Run; the next one
// resets temporaries, user parameters and outcomes.
func (p *Program) Run(e *Env, from int) {
	e.begin()
	for pc := int(p.start[p.clampStmt(from)]); pc < len(p.code); pc++ {
		in := &p.code[pc]
		a := in.a >= 0 && e.regs[in.a].num
		switch {
		case in.op == opBin && a && e.regs[in.b].num:
			e.binNum(pc, in)
		case (in.op == opNeg || in.op == opCall) && a && (in.b < 0 || e.regs[in.b].num):
			e.mapNum(pc, in)
		case in.op == opLoad && a:
			copy(e.col(in.dst), e.col(in.a))
			e.regs[in.dst].num = true
		case in.op == opNumArg && a, in.op == opGuard && !e.regs[in.a].bound:
			// nothing to refuse in any lane
		case in.op == opStore && !e.regs[in.a].bound && e.idle == 0 && e.regs[in.b].num:
			// (Lanes away or stopped must keep the value they had.)
			copy(e.col(in.a), e.col(in.b))
			fill(e.tag(in.a), tagNum)
			e.regs[in.a] = reg{num: true, dirty: true}
		case in.op == opStoreUser && e.idle == 0 && e.regs[in.b].str:
			// A host literal, the same in every lane; the user
			// parameter's tags say string already.
			copy(e.col(in.a), e.col(in.b))
			copy(e.col(in.dst), e.col(in.b))
			fill(e.tag(in.dst), tagStr)
			e.regs[in.dst] = reg{}
		case in.op == opEnd && e.idle == 0 && (a || !p.Stmts[in.stmt].Logical && !p.Stmts[in.stmt].scores):
			e.endNum(in)
		default:
			e.each(pc, in)
		}
	}
}

// begin forgets the previous run: outcomes, temporaries (what a slot
// holds that its record did not define), user parameters.
func (e *Env) begin() {
	clear(e.lanes[:e.n])
	e.idle = 0
	for _, v := range e.prog.vars {
		r := &e.regs[v.reg]
		if !r.dirty {
			continue
		}
		tags := e.tag(v.reg)
		for l, t := range tags {
			if t&tagBound == 0 {
				tags[l] = 0
			}
		}
		r.num, r.dirty = allNum(tags), false
	}
	for _, u := range e.prog.uparams {
		// An unset user parameter reads as the empty string, the first
		// in the program's table.
		e.regs[u.reg] = reg{}
		clear(e.col(u.reg))
		fill(e.tag(u.reg), tagStr)
	}
}

func fill(tags []uint8, t uint8) {
	for l := range tags {
		tags[l] = t
	}
}

func allNum(tags []uint8) bool {
	for _, t := range tags {
		if t&tagNum == 0 {
			return false
		}
	}
	return true
}

// at reads one lane of a register: its float, and whether that is a
// string's index rather than a number. Only opLoad meets undefined
// lanes, and it looks at the tag first.
func (e *Env) at(r int32, l int) (float64, bool) {
	if r < 0 {
		return 0, false
	}
	i := int(r)*e.cap + l
	return e.num[i], !e.regs[r].num && e.tags[i]&tagStr != 0
}

// put writes one lane of a register: a number, or a string's index.
func (e *Env) put(r int32, l int, v float64, str bool) {
	i := int(r)*e.cap + l
	e.num[i], e.tags[i] = v, tagNum
	if str {
		e.tags[i] = tagStr
	}
}

// stop records a lane's hard error: the first in evaluation order
// stands, and the lane runs no further.
func (e *Env) stop(l, pc int) {
	if ln := &e.lanes[l]; ln.state == running {
		ln.state, ln.at = stopped, int32(pc)
		e.idle++
	}
}

// each runs one instruction lane by lane, looking at every lane's tag:
// the general form of every opcode, and the only form of those that
// deal in strings or in lanes that differ.
func (e *Env) each(pc int, in *instr) {
	p := e.prog
	st := &p.Stmts[in.stmt]
	nums := true // every value written was a number
	for l := 0; l < e.n; l++ {
		ln := &e.lanes[l]
		if ln.state == away && (in.op == opEnd || in.op == opStoreUser && ln.until == int32(pc)) {
			ln.state = running
			e.idle--
			if in.op == opEnd {
				continue // the statement it left is over
			}
			// The thesis convenience "user_denied_host1 = telesto": the
			// undefined name that ended the right-hand side is the host.
			host := float64(p.code[ln.at].word)
			e.put(in.a, l, host, true)
			e.put(in.dst, l, host, true)
			nums = false
			continue
		}
		if ln.state != running {
			continue
		}
		x, xs := e.at(in.a, l)
		y, ys := e.at(in.b, l)
		v, vs, ok := x, xs, true
		varTag := e.tags[max(int(in.a), 0)*e.cap+l] // opLoad, opGuard: what the variable holds
		switch in.op {
		case opLoad:
			if varTag != 0 {
				break
			}
			// Undefined. Inside the right-hand side of a user-parameter
			// assignment the name becomes the host; elsewhere in a
			// logical statement the statement is false (the thesis rule)
			// and evaluation goes on with the next; anywhere else it is
			// a hard error.
			switch {
			case in.catch >= 0:
				ln.until = in.catch
			case st.Logical:
				if ln.failed == 0 {
					ln.failed = int32(st.Line)
				}
				ln.until = -1
			default:
				e.stop(l, pc)
				continue
			}
			ln.state, ln.at = away, int32(pc)
			e.idle++
			continue
		case opNeg, opCall:
			if ok = !xs; ok {
				v, ok = in.num(x, y)
			}
		case opBin:
			vs = false
			switch {
			case !xs && !ys, in.tok == tokAnd, in.tok == tokOr: // a string is true when not "", index 0
				v, ok = arith(in.tok, x, y)
			case in.tok == tokEQ, in.tok == tokNE: // strings by EqualFold class; never equal to a number
				v = b2f((xs == ys && p.class[int(x)] == p.class[int(y)]) == (in.tok == tokEQ))
			default:
				ok = false // the remaining operators are numeric-only
			}
		case opNumArg:
			ok = !xs
		case opStoreUser:
			if v, vs, ok = y, ys, ys; ok { // only a host name or address will do
				e.put(in.a, l, v, true)
			}
		case opFail:
			ok = false
		case opGuard:
			ok = varTag&tagBound == 0
		case opStore:
			e.put(in.a, l, y, ys) // the guard stopped every lane whose record defines it
		case opEnd:
			// A string is true when non-empty: when its index is not 0.
			if st.Logical {
				if ln.failed == 0 && x == 0 {
					ln.failed = int32(st.Line)
				}
			} else if st.scores && !xs {
				ln.score, ln.scored = x, true
			}
		}
		if !ok {
			e.stop(l, pc)
		} else if in.dst >= 0 {
			e.put(in.dst, l, v, vs)
			nums = nums && !vs
		}
	}
	if in.op == opStore {
		e.regs[in.a].num, e.regs[in.a].dirty = allNum(e.tag(in.a)), true
	} else if in.dst >= 0 {
		e.regs[in.dst] = reg{num: nums}
	}
}

// endNum is opEnd with every lane running, over a numeric column or
// after an assignment: a logical statement must hold, a scoring one
// sets the score so far.
func (e *Env) endNum(in *instr) {
	st := &e.prog.Stmts[in.stmt]
	if !st.Logical && !st.scores {
		return // an assignment: nothing to judge or score
	}
	lanes := e.lanes[:e.n]
	for l, v := range e.col(in.a)[:len(lanes)] {
		if st.Logical {
			if v == 0 && lanes[l].failed == 0 {
				lanes[l].failed = int32(st.Line)
			}
		} else if st.scores {
			lanes[l].score, lanes[l].scored = v, true
		}
	}
}

// Qualified reports whether the lane passed every logical statement
// without a hard error.
func (e *Env) Qualified(lane int) bool {
	return e.lanes[lane].failed == 0 && e.lanes[lane].state != stopped
}

// Score returns the lane's score so far, if a statement set one.
func (e *Env) Score(lane int) (float64, bool) { return e.lanes[lane].score, e.lanes[lane].scored }

// Param reads user parameter k, in slot order, in a lane: the index in
// Strings of the host it holds (0, "", when unset) and whether it is a
// user_denied_host* rather than a user_preferred_host*.
func (e *Env) Param(k, lane int) (str int, denied bool) {
	u := &e.prog.uparams[k]
	return int(e.num[int(u.reg)*e.cap+lane]), u.denied
}

// Hosts collects the lane's user parameters in slot order
// (user_preferred_host1 before host2, …): the preference ranking the
// wizard applies follows the order the user numbered the slots. The
// lists alias the Env's scratch and are valid until the next call.
func (e *Env) Hosts(lane int) (denied, preferred []string) {
	e.denied, e.preferred = e.denied[:0], e.preferred[:0]
	for k := range e.prog.uparams {
		str, deny := e.Param(k, lane)
		switch host := e.prog.strs[str]; {
		case host == "":
		case deny:
			e.denied = append(e.denied, host)
		default:
			e.preferred = append(e.preferred, host)
		}
	}
	return e.denied, e.preferred
}

// Result assembles the lane's whole outcome, wording its error: the
// interpreter only noted which instruction stopped the lane, and that
// instruction's operands are still in their registers.
func (e *Env) Result(lane int) Result {
	ln := &e.lanes[lane]
	res := Result{Qualified: e.Qualified(lane), FailedLine: int(ln.failed), Score: ln.score, HasScore: ln.scored}
	res.Denied, res.Preferred = e.Hosts(lane)
	if ln.state == stopped {
		in := &e.prog.code[ln.at]
		st := &e.prog.Stmts[in.stmt]
		res.Err = &EvalError{Line: st.Line, Stmt: st.Src, Msg: e.why(in, lane)}
	}
	return res
}

// why words the hard error the instruction raised in the lane.
func (e *Env) why(in *instr, lane int) string {
	x, xs := e.at(in.a, lane)
	y, ys := e.at(in.b, lane)
	switch in.op {
	case opLoad:
		return fmt.Sprintf("undefined variable %q", in.name)
	case opNeg:
		return fmt.Sprintf("cannot negate string %s", e.prog.show(x, xs))
	case opNumArg:
		return fmt.Sprintf("%s needs numeric arguments, got %s", in.name, e.prog.show(x, xs))
	case opCall:
		_, err := in.fn.fn([maxArity]float64{x, y})
		return err.Error()
	case opStoreUser:
		return fmt.Sprintf("user parameter %q needs a host name or address, got %s", in.name, e.prog.show(y, ys))
	case opBin:
		if xs || ys {
			return fmt.Sprintf("operator %v needs numbers, got %s and %s", in.tok, e.prog.show(x, xs), e.prog.show(y, ys))
		}
		return "division by 0"
	}
	return in.name // opFail, opGuard: worded at Parse
}

// show writes a lane's value as an error message quotes it.
func (p *Program) show(v float64, str bool) string {
	if str {
		return fmt.Sprintf("%q", p.strs[int(v)])
	}
	return fmt.Sprintf("%g", v)
}

// num computes a numeric instruction (opNeg, opCall) for one lane.
func (in *instr) num(x, y float64) (float64, bool) {
	if in.op == opNeg {
		return -x, true
	}
	out, err := in.fn.fn([maxArity]float64{x, y})
	return out, err == nil
}

// mapNum is opNeg and opCall over numeric columns.
func (e *Env) mapNum(pc int, in *instr) {
	x, y, dst := e.col(in.a), e.col(max(in.b, 0)), e.col(in.dst)
	for l, v := range x {
		var ok bool
		if dst[l], ok = in.num(v, y[l]); !ok {
			e.stop(l, pc)
		}
	}
	e.regs[in.dst].num = true
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// binNum is opBin over numeric columns. Lanes away or stopped compute
// along: nothing reads what they produce.
func (e *Env) binNum(pc int, in *instr) {
	x, y, dst := e.col(in.a), e.col(in.b), e.col(in.dst)
	y, dst = y[:len(x)], dst[:len(x)]
	switch in.tok {
	case tokPlus:
		for l, v := range x {
			dst[l] = v + y[l]
		}
	case tokMinus:
		for l, v := range x {
			dst[l] = v - y[l]
		}
	case tokStar:
		for l, v := range x {
			dst[l] = v * y[l]
		}
	case tokLT:
		for l, v := range x {
			dst[l] = b2f(v < y[l])
		}
	case tokGT:
		for l, v := range x {
			dst[l] = b2f(v > y[l])
		}
	default:
		for l, v := range x {
			var ok bool
			if dst[l], ok = arith(in.tok, v, y[l]); !ok {
				e.stop(l, pc)
			}
		}
	}
	e.regs[in.dst].num = true
}

// arith is a binary operator on two numbers; ok is false for a
// division by 0.
func arith(op tokenKind, l, r float64) (v float64, ok bool) {
	switch op {
	case tokAnd:
		return b2f(l != 0 && r != 0), true
	case tokOr:
		return b2f(l != 0 || r != 0), true
	case tokEQ:
		return b2f(l == r), true
	case tokNE:
		return b2f(l != r), true
	case tokLT:
		return b2f(l < r), true
	case tokLE:
		return b2f(l <= r), true
	case tokGT:
		return b2f(l > r), true
	case tokGE:
		return b2f(l >= r), true
	case tokPlus:
		return l + r, true
	case tokMinus:
		return l - r, true
	case tokStar:
		return l * r, true
	case tokSlash:
		return l / r, r != 0
	}
	return math.Pow(l, r), true // tokCaret
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

// Builtins lists the available function names, sorted, for
// documentation and error messages.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
