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

// MentionedVars lists every identifier the program reads or assigns
// (excluding user-side parameters and built-in constants), sorted.
// The selector uses it to bind only the status variables an
// evaluation can actually touch. The returned slice is shared with
// the Program and must be treated as read-only.
func (p *Program) MentionedVars() []string { return p.mentioned }

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

// UserParams lists the user parameters the program assigns, in slot
// order: the order Hosts reports their hosts in and Env.Param reads
// them.
func (p *Program) UserParams() []string {
	names := make([]string, len(p.uparams))
	for k, u := range p.uparams {
		names[k] = u.name
	}
	return names
}

// Strings is the program's string table, which Env.Param indexes: every
// host a user parameter can hold is in it, and "" is index 0. It is
// shared with the Program and must be treated as read-only.
func (p *Program) Strings() []string { return p.strs }
