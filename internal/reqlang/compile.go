package reqlang

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse flattens every statement into instructions over numbered
// registers, the form Run (eval.go) interprets one instruction at a time
// across a whole batch of candidate servers. A register belongs to a
// variable, a user parameter, a literal or one intermediate value; an
// intermediate is written by exactly one instruction, so the operands
// of an instruction that failed stay readable while the batch lives and
// its error can be worded when somebody asks.
//
// The code is straight-line: every instruction runs, in the walker's
// evaluation order. What the recursive evaluator did by returning early
// is per-lane state (a lane that met an undefined variable leaves its
// statement, one that met a hard error stops), and the checks it made
// before descending — assignment targets, a built-in's name and arity —
// are instructions placed before the operands' code.

type opcode uint8

const (
	opLoad      opcode = iota // dst = register a (a variable or user parameter); a lane that does not define it leaves the statement
	opNeg                     // dst = -a
	opBin                     // dst = a tok b
	opNumArg                  // a, an argument of built-in name, must be a number before the next argument is evaluated
	opCall                    // dst = fn(a[, b]); opNumArg vouched for both
	opFail                    // every running lane stops with message name
	opGuard                   // lanes whose record defines variable a as a number stop with message name
	opStore                   // variable a = b on lanes whose record does not define it
	opStoreUser               // user parameter a = dst = b, a host string — or the bare word of the load that sent a lane away
	opEnd                     // statement end: a is judged (logical) or scored, lanes that left the statement return
)

type instr struct {
	op        opcode
	tok       tokenKind // opBin
	dst, a, b int32     // registers; -1 where the instruction has none
	stmt      int32     // index into Program.Stmts
	// catch (opLoad) is the pc of the innermost user-parameter
	// assignment whose right-hand side holds the load, -1 outside any:
	// "user_denied_host1 = telesto" takes the undefined name, string
	// word of the program's table, as a host.
	catch, word int32
	fn          *builtin
	name        string
}

// lit is a literal's value: a number, or a string's index.
type lit struct {
	val float64
	str bool
}

// constReg is a literal's register and the value Bind fills it with.
type constReg struct {
	reg int32
	lit
}

// compiler walks the AST once, in evaluation order, emitting code and
// noting which names are variables: those read or assigned at all (see
// MentionedVars). Registers are handed out as names and values turn up;
// finish lists which of them are the slots.
type compiler struct {
	p             *Program
	regOf         map[string]int32 // variables and user parameters
	consts        map[lit]int32
	strIdx, folds map[string]int32 // a string's index; a fold key's first string
	mentioned     map[string]bool
	stmt          int32
}

func (p *Program) compile() {
	c := compiler{p: p, regOf: map[string]int32{}, consts: map[lit]int32{}, strIdx: map[string]int32{}, folds: map[string]int32{},
		mentioned: map[string]bool{}}
	c.intern("") // index 0: what an unset user parameter reads as, and the one false string
	for i := range p.Stmts {
		c.stmt = int32(i)
		p.start = append(p.start, int32(len(p.code)))
		c.emit(instr{op: opEnd, a: c.expr(p.Stmts[i].Expr), b: -1})
	}
	p.start = append(p.start, int32(len(p.code)))
	c.finish()
}

// finish names the slot tables. Variable slots list the mentioned
// variables first, in MentionedVars order — the contract callers bind
// against — then the bare words that only ever appear as the host of a
// user-parameter assignment: nobody binds those, so they stay undefined
// and read as host names. User parameters are slotted in name order,
// which is the order their hosts are reported in.
func (c *compiler) finish() {
	p := c.p
	p.mentioned = sortedKeys(c.mentioned)
	for _, name := range p.mentioned {
		p.vars = append(p.vars, slot{name: name, reg: c.regOf[name]})
	}
	names := make([]string, 0, len(c.regOf))
	for name := range c.regOf {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if IsUserParam(name) {
			p.uparams = append(p.uparams, uparam{slot{name, c.regOf[name]}, strings.HasPrefix(name, deniedPrefix)})
		} else if !c.mentioned[name] {
			p.vars = append(p.vars, slot{name, c.regOf[name]})
		}
	}
}

func (c *compiler) newReg() int32 {
	c.p.nregs++
	return int32(c.p.nregs - 1)
}

// emit appends an instruction that produces no value; value one that
// does, and returns the fresh register holding it.
func (c *compiler) emit(in instr) {
	in.dst, in.stmt = -1, c.stmt
	c.p.code = append(c.p.code, in)
}

func (c *compiler) value(in instr) int32 {
	in.dst, in.stmt = c.newReg(), c.stmt
	c.p.code = append(c.p.code, in)
	return in.dst
}

func (c *compiler) constant(v lit) int32 {
	r, ok := c.consts[v]
	if !ok {
		r = c.newReg()
		c.consts[v] = r
		c.p.consts = append(c.p.consts, constReg{r, v})
	}
	return r
}

// intern returns a string's index in the program's table, adding it
// the first time with its EqualFold class: the index of the first
// string it equals. Only strings with one fold key are compared, so a
// requirement full of distinct strings costs Parse linear time, not
// quadratic.
func (c *compiler) intern(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	p, key := c.p, FoldKey(s)
	i := int32(len(p.strs))
	c.strIdx[s] = i
	p.strs = append(p.strs, s)
	class := i
	if j, ok := c.folds[key]; !ok {
		c.folds[key] = i
	} else if strings.EqualFold(p.strs[j], s) {
		class = p.class[j]
	}
	p.class = append(p.class, class)
	return i
}

// FoldKey replaces every rune of s with one member of its case-folding
// orbit, the least lower-case one, else the least: strings EqualFold
// calls equal share a key, and lower-case ASCII is its own.
func FoldKey(s string) string { return strings.Map(foldRune, s) }

func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		return r
	}
	rep, lower := r, unicode.IsLower(r)
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if l := unicode.IsLower(f); l && !lower || l == lower && f < rep {
			rep, lower = f, l
		}
	}
	return rep
}

// nameReg returns the register of a variable or user parameter.
func (c *compiler) nameReg(name string) int32 {
	r, ok := c.regOf[name]
	if !ok {
		r = c.newReg()
		c.regOf[name] = r
	}
	return r
}

// read emits an identifier's value: a constant, or a copy of its
// register — not the register itself, "x + (x = 5)" reads x before the
// assignment writes it. counts is false for the bare host word of a
// user-parameter assignment, which is no variable read.
func (c *compiler) read(name string, counts bool) int32 {
	if val, ok := constants[name]; ok {
		return c.constant(lit{val: val})
	}
	if counts && !IsUserParam(name) {
		c.mentioned[name] = true
	}
	return c.value(instr{op: opLoad, a: c.nameReg(name), b: -1, catch: -1, name: name})
}

// expr emits the code of one expression, operands first, and returns
// the register its value is in.
func (c *compiler) expr(n node) int32 {
	switch v := n.(type) {
	case *numNode:
		return c.constant(lit{val: v.val})
	case *strNode:
		return c.constant(lit{float64(c.intern(v.val)), true})
	case *parenNode:
		return c.expr(v.x)
	case *varNode:
		return c.read(v.name, true)
	case *unaryNode:
		return c.value(instr{op: opNeg, a: c.expr(v.x), b: -1})
	case *binNode:
		l := c.expr(v.l)
		return c.value(instr{op: opBin, tok: v.op, a: l, b: c.expr(v.r)})
	case *callNode:
		return c.call(v)
	case *assignNode:
		return c.assign(v)
	}
	return c.value(instr{op: opFail, a: -1, b: -1, name: fmt.Sprintf("internal: unknown node %T", n)})
}

func (c *compiler) call(v *callNode) int32 {
	fn := builtins[v.fn]
	if fn == nil {
		return c.value(instr{op: opFail, a: -1, b: -1, name: fmt.Sprintf("unknown function %q", v.fn)})
	}
	if len(v.args) != fn.arity {
		return c.value(instr{op: opFail, a: -1, b: -1, name: fmt.Sprintf("%s takes %d argument(s), got %d", v.fn, fn.arity, len(v.args))})
	}
	args := [maxArity]int32{-1, -1}
	for i, arg := range v.args {
		args[i] = c.expr(arg)
		c.emit(instr{op: opNumArg, a: args[i], b: -1, name: v.fn})
	}
	return c.value(instr{op: opCall, a: args[0], b: args[1], fn: fn, name: v.fn})
}

func (c *compiler) assign(v *assignNode) int32 {
	_, isConst := constants[v.name]
	user := IsUserParam(v.name)
	switch {
	case isConst:
		c.emit(instr{op: opFail, a: -1, b: -1, name: fmt.Sprintf("cannot assign to constant %q", v.name)})
	case !user:
		c.emit(instr{op: opGuard, a: c.nameReg(v.name), b: -1, name: fmt.Sprintf("cannot assign to server-side parameter %q", v.name)})
	}
	from := len(c.p.code)
	var src int32
	if word, ok := v.rhs.(*varNode); ok && user {
		src = c.read(word.name, false) // the Table 5.5 convenience: a host named by a bare word
	} else {
		src = c.expr(v.rhs)
	}
	switch {
	case isConst: // no lane gets here
	case !user:
		c.mentioned[v.name] = true
		c.emit(instr{op: opStore, a: c.nameReg(v.name), b: src})
	default:
		src = c.value(instr{op: opStoreUser, a: c.nameReg(v.name), b: src, name: v.name})
		// The loads of the right-hand side that no inner user-parameter
		// assignment claimed hand their undefined names to this one.
		for pc := from; pc < len(c.p.code)-1; pc++ {
			if in := &c.p.code[pc]; in.op == opLoad && in.catch < 0 {
				in.catch, in.word = int32(len(c.p.code)-1), c.intern(in.name)
			}
		}
	}
	return src
}

// Touched lists the variable slots (indexes into MentionedVars) that
// the statements from index from on read or assign: the columns a
// batch evaluated with Run(env, from) has to bind.
func (p *Program) Touched(from int) []int {
	touched := make([]bool, p.nregs)
	for _, in := range p.code[p.start[p.clampStmt(from)]:] {
		if in.op == opLoad || in.op == opGuard || in.op == opStore {
			touched[in.a] = true
		}
	}
	var slots []int
	for i, v := range p.vars[:len(p.mentioned)] {
		if touched[v.reg] {
			slots = append(slots, i)
		}
	}
	return slots
}

func (p *Program) clampStmt(from int) int {
	return min(max(from, 0), len(p.Stmts))
}
