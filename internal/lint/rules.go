package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// rules is the table of scoped bans, one analyzer a row: sleepfree and
// nopanic keep a library honest, the rest keep one path per job from
// growing a second copy beside it (DESIGN.md "One oracle per bug class"
// gives each row the seed it flags). A row is made of a few typed
// shapes: a reference to an object, a type expression, a declaration, a
// range over a field, the block the thesis preset may hold, a component
// whose end nobody acts on. Objects resolve through types.Object, so a
// method value, an alias or a call in a closure is the same reference as
// a direct call, and a comment is never code.
var rules = []*Analyzer{
	rule("sleepfree", "no raw time.Sleep in internal packages; inject the sleep func",
		uses(scope{pkgs: []string{"internal/..."}}, true, "time.Sleep")),
	rule("nopanic", "no panic in library code; return an error",
		uses(scope{lib: true}, true, "panic")),
	rule("ctorpair", "a registry-taking New…Obs accepts a nil registry: no NewX beside it",
		declared(scope{}, isObsTwin)),
	rule("oneeval", "requirements compile to flat code that Program.Run evaluates: no function from an AST node to a value",
		declared(scope{pkgs: []string{"internal/reqlang"}}, func(obj types.Object) bool {
			res := signature(obj).Results()
			return takes(obj, named(obj.Pkg().Path(), "node")) && res.Len() == 2 && isError(res.At(1).Type())
		})),
	rule("wizardnomutex", "every answer runs through the Wizard on its drain loop: no mutex in the Wizard",
		typeUses(scope{pkgs: []string{"internal/wizard"}, decls: []string{"Wizard"}}, named("sync", "Mutex", "RWMutex"))),
	rule("hostlists", "a selection resolves its host lists to positions in hosts.go: no per-lane name matching",
		uses(scope{pkgs: []string{"internal/core"}}, false, "(*smartsock/internal/reqlang.Env).Hosts"),
		uses(scope{pkgs: []string{"internal/core"}, allow: []string{"hosts.go"}}, false, "smartsock/internal/core.splitHost")),
	rule("treemerge", "a repeat merges its stored page lists through the winner tree, never one by one",
		ranges(scope{pkgs: []string{"internal/core"}, decls: []string{"(*Selector).evaluate"}}, "smartsock/internal/core.pageWinners.top")),
	rule("optable", "operators live in lexer.go's operators table and tokens slice the source",
		typeUses(scope{pkgs: []string{"internal/reqlang"}}, func(t types.Type) bool {
			m, ok := t.(*types.Map)
			return ok && named("smartsock/internal/reqlang", "tokenKind")(m.Key())
		}),
		typeUses(scope{pkgs: []string{"internal/reqlang"}, files: []string{"lexer.go"}}, named("strings", "Builder"))),
	rule("cmptype", "a constraint is a reqlang.Constraint from planner to index: no second comparison type or converter",
		declared(scope{pkgs: []string{"internal/index"}}, func(obj types.Object) bool {
			_, isType := obj.(*types.TypeName)
			return isType && (obj.Name() == "Op" || obj.Name() == "Constraint")
		}),
		declared(scope{pkgs: []string{"internal/core"}}, func(obj types.Object) bool {
			return takes(obj, named("smartsock/internal/reqlang", "CmpOp"))
		})),
	rule("thesispreset", "-compat fixes what a thesis peer observes: the wire and, in wizardd, pass-through admission",
		presetHolds(scope{pkgs: []string{"cmd/wizardd"}}, "maxQueue", "rateLimit"),
		presetHolds(scope{pkgs: []string{"cmd/sysmond"}})),
	rule("runloop", "a periodic round repeats through loop.Every: no ticker or timer of its own",
		uses(scope{pkgs: []string{"internal/probe", "internal/transport", "internal/secmon", "internal/netmon", "internal/monitor"}}, false,
			"time.NewTicker", "time.NewTimer")),
	rule("componentend", "a component runs as a loop.Group member, which acts on its end",
		componentEnds(scope{pkgs: []string{"cmd/...", "examples/...", "internal/experiments", "internal/testbed"}})),
}

// rule makes one analyzer of its clauses.
func rule(name, doc string, clauses ...func(*Pass)) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) {
		for _, c := range clauses {
			c(pass)
		}
	}}
}

// flag reports what was found at n, and the rule's doc.
func (p *Pass) flag(n ast.Node, what string) {
	p.Reportf(n.Pos(), "%s: %s", what, p.analyzer.Doc)
}

// scope is where a clause applies: packages module-relative
// ("internal/core", "cmd/..." for a tree; nil for all), lib for no
// package main, file base names, and top-level declarations named "f",
// "(*T).m" or "T"; allow exempts declarations and files. Test files are
// never in scope.
type scope struct {
	pkgs                []string
	lib                 bool
	files, decls, allow []string
}

// each calls visit on every node in scope, outer nodes first.
func (s scope) each(pass *Pass, visit func(n ast.Node)) {
	rel := pass.Pkg.Path[strings.Index(pass.Pkg.Path, "/")+1:]
	if s.lib && pass.Pkg.Name == "main" || s.pkgs != nil && !slices.ContainsFunc(s.pkgs, func(pat string) bool {
		tree, ok := strings.CutSuffix(pat, "/...")
		return rel == pat || ok && strings.HasPrefix(rel, tree+"/")
	}) {
		return
	}
	in := func(set []string, name string) bool { return set == nil || slices.Contains(set, name) }
	for _, file := range pass.Pkg.Files {
		name := filepath.Base(pass.Pkg.Fset.Position(file.Pos()).Filename)
		if IsTestFile(pass.Pkg.Fset, file.Pos()) || !in(s.files, name) || slices.Contains(s.allow, name) {
			continue
		}
		walk := func(unit ast.Node, name string) {
			if in(s.decls, name) && !slices.Contains(s.allow, name) {
				ast.Inspect(unit, func(n ast.Node) bool {
					if n != nil {
						visit(n)
					}
					return true
				})
			}
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = "(" + types.ExprString(d.Recv.List[0].Type) + ")." + name
				}
				walk(d, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					name := ""
					if ts, ok := spec.(*ast.TypeSpec); ok {
						name = ts.Name.Name
					}
					walk(spec, name)
				}
			}
		}
	}
}

// uses bans references to the named objects — a call, a method value, a
// function value; functions by types.Func.FullName, builtins by name —
// or, with callsOnly, calls alone, so that passing one as a value (an
// injected `sleep: time.Sleep`) is fine.
func uses(in scope, callsOnly bool, objs ...string) func(*Pass) {
	return func(pass *Pass) {
		called := map[*ast.Ident]bool{}
		in.each(pass, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fn := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					called[fn] = true
				case *ast.SelectorExpr:
					called[fn.Sel] = true
				}
			case *ast.Ident:
				obj := pass.Pkg.Info.Uses[n]
				name := ""
				if fn, ok := obj.(*types.Func); ok {
					name = fn.FullName()
				} else if _, ok := obj.(*types.Builtin); ok {
					name = obj.Name()
				}
				if slices.Contains(objs, name) && (called[n] || !callsOnly) {
					pass.flag(n, name)
				}
			}
		})
	}
}

// ranges bans a range over one of the struct fields, named "path.T.field".
func ranges(in scope, fields ...string) func(*Pass) {
	return func(pass *Pass) {
		in.each(pass, func(n ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			if sel, ok := ast.Unparen(rs.X).(*ast.SelectorExpr); ok && pass.Pkg.Info.Selections[sel] != nil {
				recv := pass.Pkg.Info.Selections[sel].Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if field := recv.String() + "." + sel.Sel.Name; slices.Contains(fields, field) {
					pass.flag(rs, "a range over "+field)
				}
			}
		})
	}
}

// typeUses bans type expressions of a matching type.
func typeUses(in scope, match func(types.Type) bool) func(*Pass) {
	return func(pass *Pass) {
		in.each(pass, func(n ast.Node) {
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.IsType() && match(tv.Type) {
					pass.flag(e, types.ExprString(e))
				}
			}
		})
	}
}

// declared bans top-level types, functions and methods whose object
// matches.
func declared(in scope, match func(types.Object) bool) func(*Pass) {
	return func(pass *Pass) {
		in.each(pass, func(n ast.Node) {
			var id *ast.Ident
			switch d := n.(type) {
			case *ast.FuncDecl:
				id = d.Name
			case *ast.TypeSpec:
				id = d.Name
			default:
				return
			}
			if obj := pass.Pkg.Info.Defs[id]; obj != nil && match(obj) {
				pass.flag(id, id.Name)
			}
		})
	}
}

// named matches the types of package path with one of the names.
func named(path string, names ...string) func(types.Type) bool {
	return func(t types.Type) bool {
		n, ok := types.Unalias(t).(*types.Named)
		return ok && slices.Contains(names, n.Obj().Name()) && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == path
	}
}

// signature is a function's signature, an empty one for anything else.
func signature(obj types.Object) *types.Signature {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Type().(*types.Signature)
	}
	return new(types.Signature)
}

// takes reports whether obj is a function with a parameter of a
// matching type.
func takes(obj types.Object, match func(types.Type) bool) bool {
	params := signature(obj).Params()
	for i := range params.Len() {
		if match(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isError(t types.Type) bool { return types.Identical(t, types.Universe.Lookup("error").Type()) }

// isObsTwin matches a NewX declared beside a NewXObs, which takes a
// registry and accepts nil. reqlang.NewCache is the one pair left:
// benchmark/ compiles against both names.
func isObsTwin(obj types.Object) bool {
	if _, ok := obj.(*types.Func); !ok || signature(obj).Recv() != nil || !strings.HasPrefix(obj.Name(), "New") ||
		obj.Name() == "NewCache" && obj.Pkg().Path() == "smartsock/internal/reqlang" {
		return false
	}
	_, twin := obj.Pkg().Scope().Lookup(obj.Name() + "Obs").(*types.Func)
	return twin
}

// presetHolds bans every statement of an `if *compat {` block but an
// assignment to the listed flags, each dereferenced (none listed: no
// statement at all).
func presetHolds(in scope, flags ...string) func(*Pass) {
	return func(pass *Pass) {
		flagOf := func(e ast.Expr) string { // the package variable *e reads
			if star, ok := ast.Unparen(e).(*ast.StarExpr); ok {
				if id, ok := ast.Unparen(star.X).(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == pass.Pkg.Types.Scope().Lookup(id.Name) {
					return id.Name
				}
			}
			return ""
		}
		in.each(pass, func(n ast.Node) {
			if ifs, ok := n.(*ast.IfStmt); ok && flagOf(ifs.Cond) == "compat" {
				for _, stmt := range ifs.Body.List {
					as, ok := stmt.(*ast.AssignStmt)
					if !ok || as.Tok != token.ASSIGN || slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return !slices.Contains(flags, flagOf(e)) }) {
						pass.flag(stmt, "a statement in the -compat preset")
					}
				}
			}
		})
	}
}

// componentEnds bans a component's Run (RunActive, ServePassive, Serve:
// a method ending in an error) whose end nobody acts on: in a go or
// defer statement, called for its side effects, its error assigned to _,
// or a method value anywhere but in loop.Group.Go.
func componentEnds(in scope) func(*Pass) {
	return func(pass *Pass) {
		isRun := func(e ast.Expr) bool {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok || !slices.Contains([]string{"Run", "RunActive", "ServePassive", "Serve"}, sel.Sel.Name) {
				return false
			}
			sig := signature(pass.Pkg.Info.Uses[sel.Sel])
			return sig.Recv() != nil && sig.Results().Len() > 0 && isError(sig.Results().At(sig.Results().Len()-1).Type())
		}
		used := map[ast.Expr]bool{} // a call's function, or an argument of Group.Go
		in.each(pass, func(n ast.Node) {
			var dropped ast.Expr
			switch s := n.(type) {
			case *ast.CallExpr:
				used[ast.Unparen(s.Fun)] = true
				if fn, ok := CalleeFunc(pass.Pkg.Info, s); ok && fn.FullName() == "(*smartsock/internal/loop.Group).Go" {
					for _, arg := range s.Args {
						used[ast.Unparen(arg)] = true
					}
				}
			case *ast.GoStmt:
				dropped = s.Call
			case *ast.DeferStmt:
				dropped = s.Call
			case *ast.ExprStmt:
				dropped = s.X
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 && !slices.ContainsFunc(s.Lhs, func(e ast.Expr) bool { return types.ExprString(e) != "_" }) {
					dropped = s.Rhs[0]
				}
			case *ast.SelectorExpr:
				if isRun(s) && !used[s] {
					pass.flag(s, types.ExprString(s)+" as a value")
				}
			}
			if call, ok := ast.Unparen(dropped).(*ast.CallExpr); ok && isRun(call.Fun) {
				pass.flag(call, types.ExprString(call.Fun)+" with its end dropped")
			}
		})
	}
}
