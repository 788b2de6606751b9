package lotus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"lotus/internal/cluster"
	"lotus/internal/control"
	"lotus/internal/serve"
)

// TestKnobRatchet pins the number of exported fields on the serving stack's
// configuration surfaces and the number of flags its two commands define. A
// knob is only worth its place if it shows a bench or gate delta, is derived
// automatically, or goes (ROADMAP aim 2): a change that adds one must update
// this pin and say which of the three it meets; a change that removes one
// lowers the pin.
func TestKnobRatchet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{serve.Config{}, 17},
		{serve.ClientConfig{}, 9}, // Addrs went: failover across servers is cluster.Client's
		{cluster.Config{}, 11},    // Replication routed nothing; Balancer's five knobs and HedgeMinSamples are constants
		{control.Knobs{}, 2},
	} {
		typ := reflect.TypeOf(c.v)
		got := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != c.want {
			t.Errorf("%s has %d exported fields, pinned at %d. Every knob must show a bench "+
				"delta, be derived automatically, or be removed (ROADMAP aim 2): justify the "+
				"change, then move the pin", typ, got, c.want)
		}
	}
	for _, c := range []struct {
		main string
		want int
	}{
		{"cmd/lotus-serve/main.go", 20}, // -mode and -arch went: it serves RealData only
		{"cmd/lotus-fetch/main.go", 11},
	} {
		if got := flagCount(t, c.main); got != c.want {
			t.Errorf("%s defines %d flags, pinned at %d. Every knob must show a bench "+
				"delta, be derived automatically, or be removed (ROADMAP aim 2): justify the "+
				"change, then move the pin", c.main, got, c.want)
		}
	}
}

// flagDefiners are the flag package's functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// flagCount parses one command's source and counts its flag.<Kind>(…) calls.
func flagCount(t *testing.T, path string) int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefiners[sel.Sel.Name] {
					n++
				}
			}
		}
		return true
	})
	return n
}
