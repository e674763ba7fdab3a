package reqlang

import "sort"

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
