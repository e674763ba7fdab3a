package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"smartsock/internal/lint"
)

// LockOrder extends mutexheld from "no blocking call under lock" to
// deadlock-freedom. It builds a module-wide lock-acquisition graph:
// locks are identified by their declaring field or variable
// (instance-insensitive — every Transmitter.mu is one node), each
// function's acquires are scanned in source order the way mutexheld
// does, and one-level call summaries extend the held-set across
// calls: a call made with lock A held, to a function that
// (transitively) acquires lock B, contributes the edge A→B.
//
// Reported:
//   - lock-order inversions: A→B observed somewhere and B→A
//     somewhere else (the classic ABBA deadlock), including longer
//     cycles through call summaries;
//   - self-deadlocks: acquiring (or calling into a function that
//     acquires) a lock already held, when a write lock is involved.
//
// Deliberately not reported: merely holding a lock across a call that
// locks something else — that is the normal fine-grained-locking
// shape and only becomes a bug when a reversed ordering exists, which
// is exactly what the cycle check finds.
var LockOrder = &lint.Analyzer{
	Name:      "lockorder",
	Doc:       "no cycles in the module-wide lock-acquisition order; no re-acquiring a held lock through a call chain",
	RunModule: runLockOrder,
}

// lockEvent is one acquire/release/call in source order.
type lockEvent struct {
	pos      token.Pos
	lock     types.Object // acquire/release target, nil for calls
	callee   *types.Func  // call target, nil for lock ops
	acquire  bool
	release  bool
	deferred bool
	write    bool // Lock vs RLock
}

// lockEdge is one observed ordering: held was held when next was
// acquired.
type lockEdge struct {
	held, next types.Object
}

type edgeSite struct {
	pkg *lint.Package
	pos token.Pos
	via string // call chain note, "" for direct acquires
}

func runLockOrder(pass *lint.ModulePass) {
	// Per-unit event streams, in source order.
	var units []*Unit
	for _, pkg := range pass.Pkgs {
		units = append(units, Units(pkg)...)
	}
	events := make(map[*Unit][]lockEvent)
	for _, u := range units {
		if u.Test {
			continue
		}
		events[u] = lockEvents(u)
	}

	// Direct locksets per declared function, then the transitive
	// closure over the static call graph.
	direct := make(map[*types.Func]map[types.Object]bool)
	calls := make(map[*types.Func][]*types.Func)
	for u, evs := range events {
		if u.Obj == nil {
			continue
		}
		for _, ev := range evs {
			if ev.acquire {
				if direct[u.Obj] == nil {
					direct[u.Obj] = make(map[types.Object]bool)
				}
				direct[u.Obj][ev.lock] = true
			}
			if ev.callee != nil {
				calls[u.Obj] = append(calls[u.Obj], ev.callee)
			}
		}
	}
	lockset := make(map[*types.Func]map[types.Object]bool)
	for fn, locks := range direct {
		lockset[fn] = make(map[types.Object]bool, len(locks))
		for l := range locks {
			lockset[fn][l] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, g := range callees {
				for l := range lockset[g] {
					if lockset[fn] == nil {
						lockset[fn] = make(map[types.Object]bool)
					}
					if !lockset[fn][l] {
						lockset[fn][l] = true
						changed = true
					}
				}
			}
		}
	}

	// Walk each unit's events with a held-set, generating order edges
	// and self-deadlock findings.
	edges := make(map[lockEdge]edgeSite)
	addEdge := func(e lockEdge, site edgeSite) {
		if e.held == e.next {
			return
		}
		if _, ok := edges[e]; !ok {
			edges[e] = site
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Body.Pos() < units[j].Body.Pos() })
	for _, u := range units {
		evs, ok := events[u]
		if !ok {
			continue
		}
		type heldLock struct {
			obj   types.Object
			write bool
		}
		var held []heldLock
		heldIdx := func(l types.Object) int {
			for i, h := range held {
				if h.obj == l {
					return i
				}
			}
			return -1
		}
		for _, ev := range evs {
			switch {
			case ev.acquire:
				if i := heldIdx(ev.lock); i >= 0 && (ev.write || held[i].write) {
					pass.Reportf(u.Pkg, ev.pos, "%s acquires %s while already holding it (self-deadlock)",
						u.Name, lockName(ev.lock))
				}
				for _, h := range held {
					addEdge(lockEdge{h.obj, ev.lock}, edgeSite{pkg: u.Pkg, pos: ev.pos})
				}
				held = append(held, heldLock{ev.lock, ev.write})
			case ev.release:
				if i := heldIdx(ev.lock); i >= 0 {
					held = append(held[:i], held[i+1:]...)
				}
			case ev.callee != nil:
				if len(held) == 0 {
					continue
				}
				for l := range lockset[ev.callee] {
					if i := heldIdx(l); i >= 0 {
						pass.Reportf(u.Pkg, ev.pos, "%s calls %s while holding %s, which %s itself acquires (self-deadlock)",
							u.Name, ev.callee.Name(), lockName(l), ev.callee.Name())
						continue
					}
					for _, h := range held {
						addEdge(lockEdge{h.obj, l}, edgeSite{pkg: u.Pkg, pos: ev.pos, via: " (via call to " + ev.callee.Name() + ")"})
					}
				}
			}
		}
	}

	// Cycle check: report every edge that participates in a cycle,
	// found by checking whether next can reach held back through the
	// edge graph.
	succs := make(map[types.Object][]types.Object)
	for e := range edges {
		succs[e.held] = append(succs[e.held], e.next)
	}
	reaches := func(from, to types.Object) bool {
		seen := map[types.Object]bool{from: true}
		stack := []types.Object{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[cur] {
				if s == to {
					return true
				}
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}
	type inversion struct {
		e    lockEdge
		site edgeSite
	}
	var inversions []inversion
	for e, site := range edges {
		if reaches(e.next, e.held) {
			inversions = append(inversions, inversion{e, site})
		}
	}
	sort.Slice(inversions, func(i, j int) bool {
		return inversions[i].site.pos < inversions[j].site.pos
	})
	for _, inv := range inversions {
		pass.Reportf(inv.site.pkg, inv.site.pos, "lock order inversion: %s is acquired%s while %s is held, but the opposite order exists elsewhere in the module",
			lockName(inv.e.next), inv.site.via, lockName(inv.e.held))
	}
}

// lockEvents scans one unit for lock operations and static calls, in
// source order. Deferred unlocks keep the lock held to the end of the
// unit, matching mutexheld's model.
func lockEvents(u *Unit) []lockEvent {
	info := u.Pkg.Info
	var evs []lockEvent
	lint.InspectShallow(u.Body, func(n ast.Node) bool {
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Handle the deferred call here and do not descend, or the
			// CallExpr child would be re-visited as an immediate call
			// and a `defer mu.Unlock()` would release at the defer line
			// instead of holding to the end of the unit.
			call = n.Call
			deferred = true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		fn, ok := lint.CalleeFunc(info, call)
		if !ok {
			return !deferred
		}
		if lock, isLockOp, acquire, write := mutexOp(info, call, fn); isLockOp {
			if lock == nil {
				return !deferred
			}
			switch {
			case acquire && !deferred:
				evs = append(evs, lockEvent{pos: call.Pos(), lock: lock, acquire: true, write: write})
			case !acquire && !deferred:
				evs = append(evs, lockEvent{pos: call.Pos(), lock: lock, release: true})
			case !acquire && deferred:
				// Held until return: no release event.
			}
			return !deferred
		}
		if fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "smartsock") && !deferred {
			evs = append(evs, lockEvent{pos: call.Pos(), callee: fn})
		}
		return !deferred
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// mutexOp classifies a call as a sync.Mutex/RWMutex operation and
// resolves the lock's declaring object.
func mutexOp(info *types.Info, call *ast.CallExpr, fn *types.Func) (lock types.Object, isLockOp, acquire, write bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false, false, false
	}
	switch fn.Name() {
	case "Lock":
		acquire, write = true, true
	case "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false, false
	}
	expr, ok := lint.ReceiverExpr(call)
	if !ok {
		return nil, true, acquire, write
	}
	return lockObject(info, expr), true, acquire, write
}

// lockObject resolves the mutex expression to the field or variable
// object that declares it: s.mu -> the mu field of s's type, mu -> the
// local or package variable.
func lockObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil {
			return obj
		}
	case *ast.StarExpr:
		return lockObject(info, e.X)
	case *ast.UnaryExpr:
		return lockObject(info, e.X)
	}
	return nil
}

// lockName renders a lock object as owner.field for messages.
func lockName(obj types.Object) string {
	name := obj.Name()
	if owner := fieldOwner(obj); owner != "" {
		name = owner + "." + name
	}
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	return name
}

// fieldOwner finds the struct type a field object belongs to, by
// scanning the named types of its package.
func fieldOwner(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || obj.Pkg() == nil {
		return ""
	}
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}
