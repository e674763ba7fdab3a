package lint

import (
	"go/ast"
	"go/types"
)

// scanFreeScope lists the packages on the wizard's request serve path.
// With the selection planner in place, a walk of a sys-table snapshot
// there reintroduces the O(table) cost per request that the per-field
// indexes exist to kill. The selector visits records in one
// place only — its evaluation loop, which asks a candidate source for
// the next snapshot position and so ranges over no table — and nothing
// on the serve path carries a //lint:ignore for this analyzer today;
// a new walk of the table must justify itself with one.
var scanFreeScope = map[string]bool{
	"smartsock/internal/core":   true,
	"smartsock/internal/wizard": true,
}

// isSysRecordSlice reports whether t is []store.SysRecord, what the
// full-table accessors (DB.Sys, DB.FreshSys) return.
func isSysRecordSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := s.Elem()
	if ptr, ok := elem.Underlying().(*types.Pointer); ok {
		elem = ptr.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "SysRecord" && obj.Pkg() != nil && obj.Pkg().Path() == "smartsock/internal/store"
}

// isSnapshotWalk reports whether call is (*store.SysSnapshot).Each, the
// snapshot's full walk. At and Len are not walks: the evaluation loop
// reads the positions its candidate source names through them.
func isSnapshotWalk(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := CalleeFunc(info, call)
	return ok && fn.FullName() == "(*smartsock/internal/store.SysSnapshot).Each"
}

// ScanFree reports full-table iteration — a range over a sys-record
// slice or a SysSnapshot.Each walk — on the wizard/core serve path.
var ScanFree = &Analyzer{
	Name: "scanfree",
	Doc:  "serve-path code must not walk the sys table (range over its records, SysSnapshot.Each); selection visits records through the selector's one evaluation loop, and any other walk needs a //lint:ignore rationale",
	Run: func(pass *Pass) {
		if !scanFreeScope[pass.Pkg.Path] {
			return
		}
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil || IsTestFile(pass.Pkg.Fset, n.Pos()) {
					return true
				}
				switch n := n.(type) {
				case *ast.RangeStmt:
					if isSysRecordSlice(pass.Pkg.Info.TypeOf(n.X)) {
						pass.Reportf(n.Pos(), "range over a sys-record table on the serve path; go through the selector's evaluation loop instead, or justify the scan with //lint:ignore scanfree <reason>")
					}
				case *ast.CallExpr:
					if isSnapshotWalk(pass.Pkg.Info, n) {
						pass.Reportf(n.Pos(), "SysSnapshot.Each walks the whole sys table on the serve path; go through the selector's evaluation loop instead, or justify the scan with //lint:ignore scanfree <reason>")
					}
				}
				return true
			})
		}
	},
}
