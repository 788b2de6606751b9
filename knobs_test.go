package lotus_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lotus/internal/autotune"
	"lotus/internal/cluster"
	"lotus/internal/core/lotusmap"
	"lotus/internal/core/trace"
	"lotus/internal/hwsim"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// TestKnobRatchet pins the number of exported fields on the serving stack's,
// the library's and the characterization tools' configuration surfaces and
// the number of flags the
// serving stack's two commands define. A knob is only worth its place if it
// shows a bench or gate delta, is derived automatically, or goes (ROADMAP
// aim 2): a change that adds one must update this pin and say which of the
// three it meets; a change that removes one lowers the pin.
func TestKnobRatchet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{serve.Config{}, 13},       // QoS went (always on), Pprof went (always mounted), AdmitWait is a constant, AutoTune went (no bench delta)
		{serve.ClientConfig{}, 8},  // Addrs went: failover across servers is cluster.Client's; sleep is unexported (only in-package tests set it)
		{cluster.Config{}, 8},      // Replication routed nothing; Balancer's five knobs, HedgeMinSamples and HedgeMinDelay are constants; OnReroute duplicated Logf; sleep is unexported
		{store.Options{}, 3},       // SegmentBytes and QueueBytes are unexported: only tests set them
		{workloads.Spec{}, 14},     // the facade's WorkloadSpec; Cache went with the page-cache model; SizeAware is derived from Dispatch; PerLogCost had no setter
		{pipeline.Config{}, 18},    // the facade's LoaderConfig; BatchIDOffset is Epoch times the plan length, CostHint is record bytes under DispatchLeastWork, PrefixFP is the SampleCache's own
		{pipeline.Ctx{}, 11},       // copies Config's worker-facing fields: a knob deleted from Config must not come back here
		{serve.TenantLimit{}, 4},   // BurstBytes went: every setter passed the default, one second of BytesPerSec; BurstBatches stays (tenant-greedy sets 4 at a rate of 100)
		{lotusmap.Config{}, 3},     // the paper fixes the rest of the method (warm-ups, confidence, support, filtered libraries); Table I and Figure 6 cap MaxRuns at Small scale, the ablations set GapSleep
		{autotune.Config{}, 4},     // Tolerance and LongWait had no setter outside tests; a test turns TunePrefetch on
		{hwsim.SamplerConfig{}, 6}, // two presets (VTune-like, uProf-like), and tests vary skid and noise
		{trace.AdvisorConfig{}, 4}, // lotus-advise's four threshold flags
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

// TestDocRatchet pins the line counts of DESIGN.md and README.md, and holds
// them and the Go comments under internal/, cmd/ and the repository root,
// tests included, to the present tense. The docs are to describe the system
// as it is, and prose has outgrown the code it describes (ROADMAP item 26): a
// change that lengthens a doc must move its pin and say why in CHANGES.md; a
// change that shortens one lowers the pin. A line that names a change by its pull-request number
// is history, which CHANGES.md keeps.
func TestDocRatchet(t *testing.T) {
	for _, c := range []struct {
		path string
		want int
	}{
		{"DESIGN.md", 1166},
		{"README.md", 443},
	} {
		b, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(b, []byte("\n")); got != c.want {
			t.Errorf("%s has %d lines, pinned at %d. A longer doc must say why in CHANGES.md, "+
				"then move the pin; a shorter one lowers it", c.path, got, c.want)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if historyRE.MatchString(line) {
				t.Errorf("%s:%d names a change by number; say what the system does now: %s", c.path, i+1, line)
			}
		}
	}
	for _, c := range loadDocIndex(t).comments {
		if !strings.HasPrefix(c.file, "internal/") && !strings.HasPrefix(c.file, "cmd/") && strings.Contains(c.file, "/") {
			continue
		}
		for _, line := range strings.Split(c.text, "\n") {
			if historyRE.MatchString(line) {
				t.Errorf("%s: comment names a change by number; say what the code does now: %s", c.pos, line)
			}
		}
	}
}

// historyRE matches a reference to a change by its number.
var historyRE = regexp.MustCompile(`PR [0-9]`)

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
