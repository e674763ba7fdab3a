package reqlang

// SetStr binds a string attribute by slot (the Chapter 6 machine_type
// extension). No server record carries one yet, so only tests bind it.
func (e *Env) SetStr(slot int, s string) {
	e.vals[slot] = Value{Str: s, IsStr: true}
	e.bound.set(slot)
}

// MapEnv adapts name-keyed bindings to a fresh slot environment, for
// tests that evaluate a program against one hand-written server.
func (p *Program) MapEnv(params map[string]float64, strParams map[string]string) *Env {
	e := p.NewEnv()
	for slot, name := range p.vars {
		if v, ok := params[name]; ok {
			e.Set(slot, v)
		} else if s, ok := strParams[name]; ok {
			e.SetStr(slot, s)
		}
	}
	return e
}
