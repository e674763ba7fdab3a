package flow

import (
	"fmt"
	"go/ast"
	"go/types"

	"smartsock/internal/lint"
)

// Unit is one analysis unit: a declared function/method or a function
// literal. Literals are units of their own — a goroutine body does not
// hold its spawner's locks.
type Unit struct {
	Pkg  *lint.Package
	Obj  *types.Func // nil for literals
	Body *ast.BlockStmt
	Name string
	Test bool // declared in a _test.go file
}

// Units returns every function unit of the package, in source order.
func Units(pkg *lint.Package) []*Unit {
	var out []*Unit
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				u := &Unit{
					Pkg:  pkg,
					Body: fn.Body,
					Name: fn.Name.Name,
					Test: lint.IsTestFile(pkg.Fset, fn.Pos()),
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					u.Obj = obj
				}
				if fn.Recv != nil && len(fn.Recv.List) > 0 {
					u.Name = types.ExprString(fn.Recv.List[0].Type) + "." + u.Name
				}
				out = append(out, u)
			case *ast.FuncLit:
				out = append(out, &Unit{
					Pkg:  pkg,
					Body: fn.Body,
					Name: fmt.Sprintf("func literal at line %d", pkg.Fset.Position(fn.Pos()).Line),
					Test: lint.IsTestFile(pkg.Fset, fn.Pos()),
				})
			}
			return true
		})
	}
	return out
}
