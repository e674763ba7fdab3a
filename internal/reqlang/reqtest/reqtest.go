// Package reqtest helps tests and benchmarks outside reqlang evaluate
// a requirement program against one hand-written server.
package reqtest

import "smartsock/internal/reqlang"

// Env returns a fresh environment for p with the named numeric
// variables bound (slot i binds p.MentionedVars()[i]); names the
// program never mentions are ignored.
func Env(p *reqlang.Program, params map[string]float64) *reqlang.Env {
	e := p.NewEnv()
	for slot, name := range p.MentionedVars() {
		if v, ok := params[name]; ok {
			e.Col(slot)[0] = v
		}
	}
	return e
}
