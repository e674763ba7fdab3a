package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MutexHeld flags blocking network calls made while a sync.Mutex or
// sync.RWMutex is held. A blocked Read/Write/Accept/Dial under a lock
// turns one slow peer into a stall of every goroutine that touches
// the same mutex — the classic "hung worker" failure mode of network
// services. The analysis is per-function and textual: a region is
// held from a `mu.Lock()`/`mu.RLock()` call to the matching
// `mu.Unlock()`/`mu.RUnlock()` later in the same function; a deferred
// unlock keeps the region held to the end, and an unlock in a block
// that ends in return releases the lock inside that block only: the
// code after the block runs on the path that still holds it. Function
// literals are separate units (a goroutine spawned under a lock does
// not inherit it).
var MutexHeld = &Analyzer{
	Name: "mutexheld",
	Doc:  "no blocking network call while a sync mutex is held",
	Run:  runMutexHeld,
}

// Blocking method prefixes on types declared in package net. Prefix
// matching deliberately sweeps in the whole family: ReadFrom,
// ReadFromUDP, ReadMsgUnix, WriteTo, AcceptTCP, DialContext, …
var netBlockingPrefixes = []string{"Read", "Write", "Accept", "Dial"}

// Blocking package-level functions in package net.
var netBlockingFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true,
	"DialIP": true, "DialUnix": true,
}

func isNetBlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name, ok := CalleeFrom(info, call, "net")
	if !ok {
		return "", false
	}
	if netBlockingFuncs[name] {
		return "net." + name, true
	}
	// Method on a net type (or resolved through an embedded net.Conn):
	// require a receiver so qualified non-blocking helpers like
	// net.JoinHostPort never match.
	if _, isMethod := ReceiverExpr(call); !isMethod {
		return "", false
	}
	for _, prefix := range netBlockingPrefixes {
		if strings.HasPrefix(name, prefix) {
			return name, true
		}
	}
	return "", false
}

func isSyncLockCall(info *types.Info, call *ast.CallExpr) (key string, lock bool, ok bool) {
	name, fromSync := CalleeFrom(info, call, "sync")
	if !fromSync {
		return "", false, false
	}
	recv, isMethod := ReceiverExpr(call)
	if !isMethod {
		return "", false, false
	}
	switch name {
	case "Lock", "RLock":
		return types.ExprString(recv), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(recv), false, true
	}
	return "", false, false
}

type mutexEvent struct {
	pos   token.Pos
	kind  int // 0 lock, 1 unlock, 2 blocking call
	key   string
	label string
}

func runMutexHeld(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		if IsTestFile(pass.Pkg.Fset, file.Pos()) {
			continue
		}
		FuncUnits(file, func(_ *ast.FuncType, body *ast.BlockStmt) {
			checkMutexUnit(pass, body)
		})
	}
}

func checkMutexUnit(pass *Pass, body *ast.BlockStmt) {
	var events []mutexEvent
	deferred := map[*ast.CallExpr]bool{}
	returns := map[*ast.CallExpr]token.Pos{} // a call statement of a block ending in return: the block's end
	InspectShallow(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			deferred[node.Call] = true
		case *ast.BlockStmt:
			if k := len(node.List); k > 0 {
				if _, ok := node.List[k-1].(*ast.ReturnStmt); ok {
					for _, st := range node.List {
						if es, ok := st.(*ast.ExprStmt); ok {
							call, _ := ast.Unparen(es.X).(*ast.CallExpr)
							returns[call] = node.End()
						}
					}
				}
			}
		case *ast.CallExpr:
			if key, lock, ok := isSyncLockCall(pass.Pkg.Info, node); ok {
				if deferred[node] {
					// `defer mu.Unlock()` holds to function end; a
					// deferred Lock would be bizarre — ignore both.
					return true
				}
				kind := 1
				if lock {
					kind = 0
				}
				events = append(events, mutexEvent{pos: node.Pos(), kind: kind, key: key})
				if end, ok := returns[node]; ok && !lock {
					events = append(events, mutexEvent{pos: end, kind: 0, key: key})
				}
				return true
			}
			if label, ok := isNetBlockingCall(pass.Pkg.Info, node); ok {
				events = append(events, mutexEvent{pos: node.Pos(), kind: 2, label: label})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[string]bool{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.key] = true
		case 1:
			delete(held, ev.key)
		case 2:
			if len(held) > 0 {
				keys := make([]string, 0, len(held))
				for k := range held {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				pass.Reportf(ev.pos, "blocking call %s while holding %s; release the lock around network I/O",
					ev.label, strings.Join(keys, ", "))
			}
		}
	}
}
