package lotus_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"testing"

	"lotus/internal/cluster"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// TestKnobRatchet pins the number of exported fields on the serving stack's
// and the library's configuration surfaces and the number of flags the
// serving stack's two commands define. A knob is only worth its place if it
// shows a bench or gate delta, is derived automatically, or goes (ROADMAP
// aim 2): a change that adds one must update this pin and say which of the
// three it meets; a change that removes one lowers the pin.
func TestKnobRatchet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{serve.Config{}, 13},      // QoS went (always on), Pprof went (always mounted), AdmitWait is a constant, AutoTune went (no bench delta)
		{serve.ClientConfig{}, 8}, // Addrs went: failover across servers is cluster.Client's; sleep is unexported (only in-package tests set it)
		{cluster.Config{}, 8},     // Replication routed nothing; Balancer's five knobs, HedgeMinSamples and HedgeMinDelay are constants; OnReroute duplicated Logf; sleep is unexported
		{store.Options{}, 3},      // SegmentBytes and QueueBytes are unexported: only tests set them
		{workloads.Spec{}, 16},    // the facade's WorkloadSpec; Cache went with the page-cache model
		{pipeline.Config{}, 21},   // the facade's LoaderConfig
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
		{"cmd/lotus-serve/main.go", 16}, // -mode and -arch went (it serves RealData only); -qos, -pprof, -admit-wait and -autotune went with their Config fields
		{"cmd/lotus-fetch/main.go", 11},
	} {
		if got := flagCount(t, c.main); got != c.want {
			t.Errorf("%s defines %d flags, pinned at %d. Every knob must show a bench "+
				"delta, be derived automatically, or be removed (ROADMAP aim 2): justify the "+
				"change, then move the pin", c.main, got, c.want)
		}
	}
}

// TestDocRatchet pins the line counts of DESIGN.md and README.md. The docs
// are to describe the system as it is, and prose has outgrown the code it
// describes (ROADMAP item 26): a change that lengthens one must move its pin
// and say why in CHANGES.md; a change that shortens one lowers the pin.
func TestDocRatchet(t *testing.T) {
	for _, c := range []struct {
		path string
		want int
	}{
		{"DESIGN.md", 1166},
		{"README.md", 831},
	} {
		b, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(b, []byte("\n")); got != c.want {
			t.Errorf("%s has %d lines, pinned at %d. A longer doc must say why in CHANGES.md, "+
				"then move the pin; a shorter one lowers it", c.path, got, c.want)
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
	return len(flagCalls(f))
}

// flagCalls returns a file's flag.<Kind>(…) calls that define a flag.
func flagCalls(f *ast.File) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefiners[sel.Sel.Name] {
					out = append(out, call)
				}
			}
		}
		return true
	})
	return out
}
