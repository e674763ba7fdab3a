package core

import (
	"slices"

	"smartsock/internal/index"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// DefaultPlanThreshold is the table size at which Select starts
// consulting the planner: below it, walking every record is already
// cheaper than keeping the per-field indexes in step with the table.
// Not a setting: past it, the decline rule (source) picks the path.
const DefaultPlanThreshold = 128

// indexableVar reports whether the planner may extract constraints on
// a variable: the numeric status-report fields plus the security
// level. Network metrics are excluded — their value depends on the
// requesting client's group, not on the server record alone — so
// requirements leading with them are evaluated record by record.
func indexableVar(name string) bool {
	return status.VarIndex(name) >= 0 || name == index.SecurityField
}

// progInfo is what the selector resolves once per compiled program:
// where each variable slot's value comes from, and the planner's
// verdict. A nil plan records "not index-resolvable", so unindexable
// storms pay one map hit, not one AST walk, per request.
type progInfo struct {
	// all is what a full evaluation binds; residual what one resumed at
	// plan.Prefix binds — a variable only the index-proven statements
	// read costs the survivors nothing.
	all, residual slotVars

	params int      // user parameters the program assigns
	hosts  []string // the program's strings' hostKeys, nil if params is 0
	plan   *reqlang.Plan
	consAt []int    // per plan.Cons entry: its field's status.VarIndex, -1 for the security level
	fields []string // unique constraint fields, for column bootstrap
}

// slotVars says where the program slots a run touches get their values:
// status binds slots to status-report fields; delay, bw and sec are the
// slots of the network metrics and the security level (-1 when
// untouched). Touched slots naming nothing a record defines stay
// undefined.
type slotVars struct {
	status         []slotVar
	delay, bw, sec int
	needNet        bool
}

// slotVar says that program slot `slot` reads status variable `id`
// (a status.VarIndex).
type slotVar struct{ slot, id int }

// infoCacheMax bounds the per-program cache. Programs come from the
// wizard's compile cache, an LRU a quarter this size, so a table that
// fills holds mostly programs nobody can ask about again: it is
// dropped whole, as the selection memo is per epoch.
const infoCacheMax = 1024

// infoFor returns the cached resolution of prog, computing it on first
// sight.
func (s *Selector) infoFor(prog *reqlang.Program) *progInfo {
	s.infoMu.RLock()
	e, ok := s.infos[prog]
	s.infoMu.RUnlock()
	if ok {
		return e
	}
	e = s.resolve(prog)
	s.infoMu.Lock()
	defer s.infoMu.Unlock()
	if len(s.infos) >= infoCacheMax {
		clear(s.infos)
	}
	s.infos[prog] = e
	return e
}

func (s *Selector) resolve(prog *reqlang.Program) *progInfo {
	e := &progInfo{all: s.slotVars(prog, 0)}
	if e.params = len(prog.UserParams()); e.params > 0 {
		for _, str := range prog.Strings() {
			e.hosts = append(e.hosts, hostKey(str))
		}
	}
	if plan := prog.Plan(indexableVar); plan != nil {
		e.plan = plan
		e.residual = s.slotVars(prog, plan.Prefix)
		for _, c := range plan.Cons {
			e.consAt = append(e.consAt, status.VarIndex(c.Var))
			if !slices.Contains(e.fields, c.Var) {
				e.fields = append(e.fields, c.Var)
			}
		}
	}
	return e
}

// slotVars resolves the slots the statements from index from on touch.
func (s *Selector) slotVars(prog *reqlang.Program, from int) slotVars {
	v := slotVars{delay: -1, bw: -1, sec: -1}
	for _, slot := range prog.Touched(from) {
		switch name := prog.MentionedVars()[slot]; name {
		case "monitor_network_delay":
			v.delay = slot
		case "monitor_network_bw":
			v.bw = slot
		case index.SecurityField:
			v.sec = slot
		default:
			if id := status.VarIndex(name); id >= 0 {
				v.status = append(v.status, slotVar{slot: slot, id: id})
			}
		}
	}
	v.needNet = s.cfg.GroupOf != nil && s.cfg.LocalMonitor != "" && (v.delay >= 0 || v.bw >= 0)
	return v
}

// source picks a planned selection's candidates: the index's bitset in
// sc.bits (true), or the column filter (false) when the index declines
// a broad span or writes that outran it, raced a writer, or forceScan
// pins ground truth. The declines read the columns as last synced, so
// only a selection that reads the index brings it in step.
func (s *Selector) source(q *query, sc *scratch) (useIndex bool) {
	info := q.info
	if !s.forceScan {
		if s.idx.Broad(q.snap, info.fields, info.plan.Cons) || s.idx.Outrun(q.snap.Len()) {
			s.indexDeclines.Add(1)
			return false
		}
		if s.idx.SyncFor(q.snap, info.fields) {
			if sc.bits, sc.ids, useIndex = s.idx.Positions(q.snap.Epoch, info.plan.Cons, sc.bits, sc.ids); useIndex {
				return true
			}
		}
	}
	s.indexFallbacks.Add(1)
	return false
}

// filter is the column filter: it keeps the offsets in at whose
// records pass every extracted constraint, one pass over a column a
// constraint.
func (s *Selector) filter(info *progInfo, sc *scratch, page *store.SysPage, at []int) []int {
	for i, c := range info.plan.Cons {
		var col []float64
		if v := info.consAt[i]; v >= 0 {
			col = page.Column(v, &sc.vals)
		} else {
			col = s.secColumn(page, at, &sc.vals)
		}
		if at = c.Filter(at, col); len(at) == 0 {
			break
		}
	}
	return at
}
