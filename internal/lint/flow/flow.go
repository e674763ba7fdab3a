// Package flow holds smartlint's module-level analysis: lockorder, the
// one analyzer that needs every package at once. It is stdlib-only
// (go/parser + go/types) like the base suite: each function body and
// function literal is a Unit, a unit's lock operations and static calls
// are read in source order, and the locks a callee acquires —
// transitively, over the static call graph — extend the caller's
// held-set across the call.
//
//   - lockorder: the module-wide lock-acquisition graph stays acyclic
//     and no held lock is re-acquired through a call chain.
//
// Importing this package (cmd/smartlint does it with a blank import)
// registers the analyzer with the base suite via lint.Register; the
// //lint:ignore mechanism applies to it exactly as to the syntactic
// analyzers.
package flow

import "smartsock/internal/lint"

func init() {
	lint.Register(LockOrder)
}
