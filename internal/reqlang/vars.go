package reqlang

import (
	"sort"
	"strings"
)

// resolveVars walks the AST once, at parse time, and records the two
// variable sets the rest of the system keys off:
//
//   - free variables: read before any assignment — the server-side
//     parameters (plus typos) qualification depends on;
//   - mentioned variables: read *or* assigned anywhere — the names an
//     evaluation environment could possibly be asked about, which lets
//     the selector populate only those bindings per candidate server
//     instead of the full parameter table.
//
// User-side parameters (user_denied_host*/user_preferred_host*) and
// the built-in constants appear in neither set: they never come from
// status reports and are resolved inside the evaluator.
func (p *Program) resolveVars() {
	assigned := map[string]bool{}
	free := map[string]bool{}
	mentioned := map[string]bool{}
	for _, stmt := range p.Stmts {
		collectVars(stmt.Expr, assigned, free, mentioned)
	}
	p.free = sortedKeys(free)
	p.mentioned = sortedKeys(mentioned)
	p.refs = mentioned
	p.resolveSlots()
}

// resolveSlots gives every identifier in the AST its slot. Variable
// slots list the mentioned variables first, in MentionedVars order —
// the contract callers bind against — then the bare words that only
// ever appear as the host of a user-parameter assignment
// ("user_denied_host1 = telesto"): nobody binds those, so they stay
// undefined and read as host names, but a program that also assigns
// `telesto` a value still finds it. User parameters are slotted in
// name order, which is the order Eval reports their hosts in.
func (p *Program) resolveSlots() {
	vars, users := map[string]bool{}, map[string]bool{}
	for _, stmt := range p.Stmts {
		walk(stmt.Expr, func(n node) {
			name := ""
			switch v := n.(type) {
			case *varNode:
				name = v.name
			case *assignNode:
				name = v.name
			default:
				return
			}
			if IsUserParam(name) {
				users[name] = true
			} else if _, isConst := constants[name]; !isConst && !p.refs[name] {
				vars[name] = true
			}
		})
	}
	p.vars = append(append([]string(nil), p.mentioned...), sortedKeys(vars)...)
	slotOf := make(map[string]ref, len(p.vars)+len(users))
	for slot, name := range p.vars {
		slotOf[name] = ref{kind: refVar, slot: slot}
	}
	for slot, name := range sortedKeys(users) {
		p.uparams = append(p.uparams, uparam{name: name, denied: strings.HasPrefix(name, deniedPrefix)})
		slotOf[name] = ref{kind: refUser, slot: slot}
	}
	for name, val := range constants {
		slotOf[name] = ref{kind: refConst, val: val}
	}
	for _, stmt := range p.Stmts {
		walk(stmt.Expr, func(n node) {
			switch v := n.(type) {
			case *varNode:
				v.ref = slotOf[v.name]
				v.undef = &undefinedError{name: v.name}
			case *assignNode:
				v.ref = slotOf[v.name]
			}
		})
	}
}

// walk visits n and every node below it.
func walk(n node, visit func(node)) {
	visit(n)
	switch v := n.(type) {
	case *assignNode:
		walk(v.rhs, visit)
	case *unaryNode:
		walk(v.x, visit)
	case *parenNode:
		walk(v.x, visit)
	case *binNode:
		walk(v.l, visit)
		walk(v.r, visit)
	case *callNode:
		for _, a := range v.args {
			walk(a, visit)
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FreeVariables lists the variables the program reads without first
// assigning them. The wizard uses this to learn which parameter
// groups applications actually ask about, so probes can be told to
// measure and ship only those (the Chapter 6 selected-parameters
// extension). The returned slice is a copy the caller may keep.
func (p *Program) FreeVariables() []string {
	return append([]string(nil), p.free...)
}

// FreeVars is the allocation-free variant of FreeVariables for hot
// paths: the returned slice is shared with the Program and must be
// treated as read-only.
func (p *Program) FreeVars() []string { return p.free }

// MentionedVars lists every identifier the program reads or assigns
// (excluding user-side parameters and built-in constants), sorted.
// The selector uses it to bind only the status variables an
// evaluation can actually touch. The returned slice is shared with
// the Program and must be treated as read-only.
func (p *Program) MentionedVars() []string { return p.mentioned }

// References reports whether the program reads or assigns the named
// variable anywhere. Resolved at parse time; O(1) per call.
func (p *Program) References(name string) bool { return p.refs[name] }

func collectVars(n node, assigned, free, mentioned map[string]bool) {
	switch v := n.(type) {
	case *varNode:
		if IsUserParam(v.name) {
			return
		}
		if _, isConst := constants[v.name]; isConst {
			return
		}
		mentioned[v.name] = true
		if !assigned[v.name] {
			free[v.name] = true
		}
	case *assignNode:
		// A bare word on the RHS of a user-parameter assignment is a
		// host name (the Table 5.5 convenience), not a variable read.
		if _, bare := v.rhs.(*varNode); bare && IsUserParam(v.name) {
			assigned[v.name] = true
			return
		}
		// RHS evaluates before the assignment takes effect.
		collectVars(v.rhs, assigned, free, mentioned)
		assigned[v.name] = true
		if !IsUserParam(v.name) {
			if _, isConst := constants[v.name]; !isConst {
				mentioned[v.name] = true
			}
		}
	case *unaryNode:
		collectVars(v.x, assigned, free, mentioned)
	case *parenNode:
		collectVars(v.x, assigned, free, mentioned)
	case *binNode:
		collectVars(v.l, assigned, free, mentioned)
		collectVars(v.r, assigned, free, mentioned)
	case *callNode:
		for _, a := range v.args {
			collectVars(a, assigned, free, mentioned)
		}
	}
}

// SetsPreferred reports whether the program mentions any
// user_preferred_host* parameter, i.e. whether one server's
// evaluation can move it ahead of servers found earlier.
func (p *Program) SetsPreferred() bool {
	for _, u := range p.uparams {
		if !u.denied {
			return true
		}
	}
	return false
}
