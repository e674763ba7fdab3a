package reqlang

// bindStr binds a string attribute in one lane of a variable register
// (the Chapter 6 machine_type extension). No server record carries one
// yet, so only tests bind it.
func (e *Env) bindStr(r int32, lane int, s string) {
	e.tags[int(r)*e.cap+lane] = tagBound
	e.put(r, lane, StrValue(s))
	e.regs[r] = reg{bound: true}
}

// bindNum binds a number in one lane of a variable register, leaving
// what the other lanes hold.
func (e *Env) bindNum(r int32, lane int, v float64) {
	e.tags[int(r)*e.cap+lane] = tagBound
	e.put(r, lane, NumValue(v))
	e.regs[r] = reg{num: allNum(e.tag(r)), bound: true}
}

// bindLane binds name-keyed values into one lane: every variable
// register the names reach, the bare host words included.
func (e *Env) bindLane(lane int, params map[string]float64, strParams map[string]string) {
	for _, v := range e.prog.vars {
		if x, ok := params[v.name]; ok {
			e.bindNum(v.reg, lane, x)
		} else if s, ok := strParams[v.name]; ok {
			e.bindStr(v.reg, lane, s)
		}
	}
}

// MapEnv adapts name-keyed bindings to a fresh slot environment, for
// tests that evaluate a program against one hand-written server.
func (p *Program) MapEnv(params map[string]float64, strParams map[string]string) *Env {
	e := p.NewEnv()
	e.bindLane(0, params, strParams)
	return e
}

// evalStmt runs statement i alone against lane 0 and returns the value
// of its expression.
func (p *Program) evalStmt(e *Env, i int) (Value, error) {
	whole := p.code
	p.code = whole[:p.start[i+1]]
	p.Run(e, i)
	p.code = whole
	return e.get(p.code[p.start[i+1]-1].a, 0), e.Result(0).Err
}
