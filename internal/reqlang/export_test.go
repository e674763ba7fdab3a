package reqlang

import (
	"fmt"
	"slices"
)

// bindRecs starts a batch of one name-keyed record per lane and binds
// it through Col and Undef, as the selector does: every variable
// register the names reach, the bare host words included. A name no
// record defines stays unbound.
func (e *Env) bindRecs(recs []map[string]float64) {
	e.Reset(len(recs))
	for slot, v := range e.prog.vars {
		if !slices.ContainsFunc(recs, func(rec map[string]float64) bool { _, ok := rec[v.name]; return ok }) {
			continue
		}
		col := e.Col(slot)
		for l, rec := range recs {
			if x, ok := rec[v.name]; ok {
				col[l] = x
			} else {
				e.Undef(slot, l)
			}
		}
	}
}

// MapEnv adapts name-keyed bindings to a fresh slot environment, for
// tests that evaluate a program against one hand-written server.
func (p *Program) MapEnv(params map[string]float64) *Env {
	e := p.NewEnv()
	e.bindRecs([]map[string]float64{params})
	return e
}

// evalStmt runs statement i alone against lane 0 and returns the number
// its expression yields.
func (p *Program) evalStmt(e *Env, i int) (float64, error) {
	whole := p.code
	p.code = whole[:p.start[i+1]]
	p.Run(e, i)
	p.code = whole
	v, str := e.at(p.code[p.start[i+1]-1].a, 0)
	err := e.Result(0).Err
	if err == nil && str {
		err = fmt.Errorf("statement %d yields the string %s", i, p.show(v, true))
	}
	return v, err
}
