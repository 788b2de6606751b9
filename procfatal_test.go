package lotus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFatalInProcCallbacks fails on a Fatal*, FailNow or Skip* call made on
// a *testing.T, *testing.B, *testing.F or testing.TB inside a clock.Proc
// callback — a function literal whose one parameter is a clock.Proc, handed
// to Run or Go directly or through a variable. Both clocks run that callback
// on a goroutine of their own, where FailNow only ends that goroutine: the
// test carries on past the failure (and Sim.Run waits for a process that
// never finishes). Such a callback reports with Errorf and returns instead.
func TestNoFatalInProcCallbacks(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, pos := range fatalsInProcCallbacks(f) {
			t.Errorf("%s: test failure stops only the clock.Proc's goroutine; use Errorf and return",
				fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stopMethods are the testing.TB methods that call runtime.Goexit.
var stopMethods = map[string]bool{
	"Fatal": true, "Fatalf": true, "FailNow": true, "Skip": true, "Skipf": true, "SkipNow": true,
}

// fatalsInProcCallbacks returns the position of every stop method called on
// a testing value inside one of f's clock.Proc callbacks.
func fatalsInProcCallbacks(f *ast.File) []token.Pos {
	// The names the file gives its testing values, and the variables it
	// hands to Run or Go.
	tbNames, handed := map[string]bool{}, map[string]bool{}
	var callbacks []*ast.FuncLit
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			for _, field := range n.Params.List {
				if isTestingType(field.Type) {
					for _, name := range field.Names {
						tbNames[name.Name] = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Run" || sel.Sel.Name == "Go") {
				for _, arg := range n.Args {
					switch arg := arg.(type) {
					case *ast.FuncLit:
						if isProcCallback(arg) {
							callbacks = append(callbacks, arg)
						}
					case *ast.Ident:
						handed[arg.Name] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if lit, isLit := rhs.(*ast.FuncLit); ok && isLit && handed[id.Name] && isProcCallback(lit) {
					callbacks = append(callbacks, lit)
				}
			}
		}
		return true
	})

	var out []token.Pos
	for _, lit := range callbacks {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && stopMethods[sel.Sel.Name] {
				if recv, ok := sel.X.(*ast.Ident); ok && tbNames[recv.Name] {
					out = append(out, call.Pos())
				}
			}
			return true
		})
	}
	return out
}

// isProcCallback reports whether lit takes exactly one parameter, a
// clock.Proc (a bare Proc inside package clock).
func isProcCallback(lit *ast.FuncLit) bool {
	params := lit.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	switch typ := params[0].Type.(type) {
	case *ast.SelectorExpr:
		pkg, ok := typ.X.(*ast.Ident)
		return ok && pkg.Name == "clock" && typ.Sel.Name == "Proc"
	case *ast.Ident:
		return typ.Name == "Proc"
	}
	return false
}

// isTestingType reports whether expr names *testing.T, *testing.B,
// *testing.F or testing.TB.
func isTestingType(expr ast.Expr) bool {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "testing" {
		return false
	}
	switch sel.Sel.Name {
	case "T", "B", "F", "TB":
		return true
	}
	return false
}
