// Package lint implements smartlint, the project's static-analysis
// suite. It loads every package in the module with the standard
// library's go/parser and go/types (no external analysis framework)
// and runs a set of project-specific analyzers over the typed syntax
// trees. The analyzers encode the concurrency and I/O-deadline
// invariants a smart-socket deployment lives by:
//
//   - mutexheld: no blocking network call while a sync.Mutex or
//     sync.RWMutex is held;
//   - deadline: every net.Conn/net.PacketConn read in non-test
//     library code is preceded by a Set(Read)Deadline in the same
//     function or happens in a function that takes a context.Context;
//   - sleepfree: no raw time.Sleep call in internal/* non-test code —
//     sleeping must go through an injected clock/sleep func (the
//     shaper package's `sleep: time.Sleep` field is the approved
//     pattern; referencing time.Sleep as a default value is fine,
//     calling it directly is not);
//   - nopanic: no panic in non-test, non-main library code;
//   - errdrop: no discarded error from Close/SetDeadline/
//     SetReadDeadline/SetWriteDeadline/Flush on network types in
//     library code (`defer c.Close()` and explicit `_ = c.Close()`
//     are accepted).
//
// Those five are syntactic: each looks at one function at a time and
// matches call shapes. lockorder, the one module-level analyzer, lives
// in the internal/lint/flow subpackage and registers itself through
// Register; it runs once over every loaded package (RunModule).
//
// An analyzer is here because a seeded bug of its class passes the
// tests, the fuzz smokes and the benchmark gates, and it does not; the
// seeds are DESIGN.md's "One oracle per bug class" table. A class a
// test, a fuzz target or a benchmark metric already fails on has that
// as its owner and no analyzer.
//
// A finding may be suppressed with a directive comment on the same
// line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a
// finding. Adding a new analyzer means adding a file with an
// *Analyzer value, registering it in Analyzers, and giving it a
// fixture-driven test in lint_test.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path (e.g. "smartsock/internal/probe").
	Path string
	// Name is the package name ("main" for commands).
	Name string
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Internal reports whether the package sits under an internal/ tree,
// the scope of the sleepfree analyzer.
func (p *Package) Internal() bool {
	return strings.Contains(p.Path, "/internal/") || strings.HasPrefix(p.Path, "internal/")
}

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [name]
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the short identifier used in reports and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects pass.Pkg and calls pass.Reportf for violations.
	// Analyzers that need the whole module at once leave Run nil and
	// set RunModule instead.
	Run func(pass *Pass)
	// RunModule, when set, runs once over every loaded package
	// together — the shape a module-wide lock-order graph needs.
	RunModule func(pass *ModulePass)
}

// ModulePass carries one module-level analyzer's run over all loaded
// packages at once.
type ModulePass struct {
	Pkgs     []*Package
	analyzer *Analyzer
	findings []Finding
}

// Reportf records a finding at pos, which must belong to pkg's file
// set.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// registered holds analyzers contributed by subpackages (flow's
// lockorder) via Register.
var registered []*Analyzer

// Register appends analyzers to the suite returned by Analyzers. The
// flow subpackage calls it from init; importing that package is what
// arms lockorder.
func Register(as ...*Analyzer) {
	registered = append(registered, as...)
}

// Analyzers returns the full suite in reporting order: the built-in
// syntactic analyzers followed by the registered ones.
func Analyzers() []*Analyzer {
	base := []*Analyzer{MutexHeld, Deadline, SleepFree, NoPanic, ErrDrop}
	return append(base, registered...)
}

// ByName returns the analyzer with the given name, if any.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run applies the analyzers to the packages, filters suppressed
// findings and returns the rest sorted by position. Per-package
// analyzers run on each package in turn; module analyzers run once
// over the whole set.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	ig := newIgnoreSet()
	for _, pkg := range pkgs {
		ig.collect(pkg)
	}
	out := append([]Finding(nil), ig.malformed...)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Pkg: pkg, analyzer: a}
			a.Run(pass)
			for _, f := range pass.findings {
				if !ig.suppresses(f) {
					out = append(out, f)
				}
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Pkgs: pkgs, analyzer: a}
		a.RunModule(pass)
		for _, f := range pass.findings {
			if !ig.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ignoreDirective is the parsed form of //lint:ignore <name> <reason>.
type ignoreDirective struct {
	name string
}

type ignoreSet struct {
	// byLine maps file -> line -> directives active for that line.
	byLine    map[string]map[int][]ignoreDirective
	malformed []Finding
}

const ignorePrefix = "lint:ignore"

func newIgnoreSet() *ignoreSet {
	return &ignoreSet{byLine: make(map[string]map[int][]ignoreDirective)}
}

// collect scans every comment in the package for suppression
// directives. A directive suppresses matching findings on its own
// line and on the line immediately below it, so both trailing and
// preceding-line comments work.
func (ig *ignoreSet) collect(pkg *Package) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					ig.malformed = append(ig.malformed, Finding{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				if _, ok := ByName(fields[0]); !ok {
					ig.malformed = append(ig.malformed, Finding{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("directive names unknown analyzer %q", fields[0]),
					})
					continue
				}
				lines := ig.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]ignoreDirective)
					ig.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], ignoreDirective{name: fields[0]})
			}
		}
	}
}

func (ig *ignoreSet) suppresses(f Finding) bool {
	lines := ig.byLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range lines[line] {
			if d.name == f.Analyzer {
				return true
			}
		}
	}
	return false
}

// --- shared type-query helpers ---------------------------------------

// IsTestFile reports whether the file holding pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// CalleeFunc resolves the function or method object a call invokes,
// when it is statically known.
func CalleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return obj, true
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok {
			return obj, true
		}
	}
	return nil, false
}

// CalleeFrom reports whether the call statically resolves to a
// function or method declared in the package with the given import
// path, returning its name.
func CalleeFrom(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	obj, ok := CalleeFunc(info, call)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	return obj.Name(), true
}

// ReceiverExpr returns the receiver expression of a method call, e.g.
// `s.mu` for `s.mu.Lock()`.
func ReceiverExpr(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return sel.X, true
}

// IsNetType reports whether t (after stripping pointers) is a named
// type declared in package net.
func IsNetType(t types.Type) bool {
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "net"
}

// HasContextParam reports whether the function type declares a
// context.Context parameter.
func HasContextParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype == nil || ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}

// FuncUnits walks the file and yields every function body — top-level
// declarations and function literals — exactly once each, with the
// corresponding *ast.FuncType. Analyzers that need per-function state
// use this instead of raw ast.Inspect so a nested literal is not
// double-visited with its enclosing function's state.
func FuncUnits(file *ast.File, visit func(ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Type, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Type, fn.Body)
		}
		return true
	})
}

// InspectShallow walks body but does not descend into nested function
// literals, which form their own analysis units.
func InspectShallow(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}
