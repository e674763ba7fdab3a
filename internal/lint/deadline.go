package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// Deadline flags network reads in non-test library code that can
// block forever: every direct read on a net.Conn/net.PacketConn (and
// every io.ReadFull/io.ReadAtLeast whose reader is statically a net
// type) must either be preceded — textually, in the same top-level
// function — by a SetDeadline/SetReadDeadline call, or happen inside
// a function that takes a context.Context, in which case the caller
// owns cancellation (the project idiom is a loop.Group that closes the
// conn when the context ends). Commands (package main) are exempt: they
// die with their process.
var Deadline = &Analyzer{
	Name: "deadline",
	Doc:  "net reads need a deadline or a context-bound lifetime",
	Run:  runDeadline,
}

var netReadMethods = map[string]bool{
	"Read": true, "ReadFrom": true, "ReadFromUDP": true, "ReadFromIP": true,
	"ReadFromUnix": true, "ReadMsgUDP": true, "ReadMsgUnix": true, "ReadMsgIP": true,
}

var deadlineMethods = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true,
}

func runDeadline(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	for _, file := range pass.Pkg.Files {
		if IsTestFile(pass.Pkg.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDeadlineFunc(pass, fn)
		}
	}
}

type netRead struct {
	pos   token.Pos
	label string
	// covered is true when some enclosing function unit takes a
	// context.Context.
	covered bool
}

// checkDeadlineFunc walks one top-level function including its nested
// literals. Deadline-setting calls anywhere in the declaration arm
// every textually later read (the set-then-loop-reading shape);
// context parameters are inherited by nested literals.
func checkDeadlineFunc(pass *Pass, fn *ast.FuncDecl) {
	var reads []netRead
	var sets []token.Pos
	info := pass.Pkg.Info

	var walk func(body *ast.BlockStmt, hasCtx bool)
	walk = func(body *ast.BlockStmt, hasCtx bool) {
		ast.Inspect(body, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.FuncLit:
				walk(x.Body, hasCtx || HasContextParam(info, x.Type))
				return false
			case *ast.CallExpr:
				if name, ok := CalleeFrom(info, x, "net"); ok {
					if _, isMethod := ReceiverExpr(x); isMethod {
						if deadlineMethods[name] {
							sets = append(sets, x.Pos())
						} else if netReadMethods[name] {
							reads = append(reads, netRead{pos: x.Pos(), label: name, covered: hasCtx})
						}
					}
				} else if name, ok := CalleeFrom(info, x, "io"); ok {
					if (name == "ReadFull" || name == "ReadAtLeast") && len(x.Args) > 0 {
						if t := info.TypeOf(x.Args[0]); t != nil && IsNetType(t) {
							reads = append(reads, netRead{pos: x.Pos(), label: "io." + name, covered: hasCtx})
						}
					}
				}
			}
			return true
		})
	}
	walk(fn.Body, HasContextParam(info, fn.Type))

	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	for _, r := range reads {
		if r.covered {
			continue
		}
		armed := false
		for _, s := range sets {
			if s < r.pos {
				armed = true
				break
			}
		}
		if !armed {
			pass.Reportf(r.pos, "%s without a preceding SetDeadline/SetReadDeadline and no context.Context in scope", r.label)
		}
	}
}
