package lotus_test

import (
	"debug/elf"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// unlinkedKeep lists the functions under internal/ that no program links but
// that stay in the build, each with its reason. The names are as
// TestEveryInternalFuncIsLinked prints them. The list holds for linux/amd64
// only: other platforms build other files.
var unlinkedKeep = map[string]string{
	"testutil.CheckGoroutines": "the leak check that tests in other packages defer; production packages must not import testutil",
	"clock.(*Sim).Stats":       "SimStats, the scheduler counters that the clock tests read and ROADMAP item 22 gates on",
}

// TestEveryInternalFuncIsLinked holds internal/ to the code that programs
// run. It builds every command, perf and every example with inlining off in
// the module's packages, so that each function a program reaches keeps its
// symbol (the standard library keeps its usual build and its cache entries:
// it calls no module code directly), and fails on any
// function declared under internal/ that no binary's symbol table holds and
// unlinkedKeep does not list. A function that only tests call belongs in the
// tests' files; one that nothing calls goes (ROADMAP aim 2). It also fails on
// a keep entry that is linked or no longer declared, so the list cannot go
// stale. Run it with -v to print the kept list.
func TestEveryInternalFuncIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program; skipped with -short")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("perf builds only on Linux, and the keep list is for linux/amd64")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-gcflags=lotus/...=-l", "-o", dir+"/", "./cmd/...", "./perf", "./examples/...")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 10 {
		t.Fatalf("built only %d programs", len(bins))
	}
	linked := map[string]bool{}
	for _, b := range bins {
		f, err := elf.Open(filepath.Join(dir, b.Name()))
		if err != nil {
			t.Fatal(err)
		}
		syms, err := f.Symbols()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range syms {
			if name, ok := strings.CutPrefix(s.Name, "lotus/internal/"); ok {
				linked[stripTypeArgs(name)] = true
			}
		}
	}

	decls := internalFuncs(t)
	var unlinked []string
	for _, d := range decls {
		if linked[d] {
			continue
		}
		// A value-receiver method called through a pointer links as
		// pkg.(*T).M only.
		if pkg, rest, ok := strings.Cut(d, "."); ok && strings.Contains(rest, ".") && !strings.HasPrefix(rest, "(*") {
			typ, m, _ := strings.Cut(rest, ".")
			if linked[pkg+".(*"+typ+")."+m] {
				continue
			}
		}
		unlinked = append(unlinked, d)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d] = true
	}
	isUnlinked := map[string]bool{}
	for _, u := range unlinked {
		isUnlinked[u] = true
		if why, ok := unlinkedKeep[u]; ok {
			t.Logf("kept: %s — %s", u, why)
			continue
		}
		t.Errorf("%s: no program links it. Delete it, move it into the tests that call it, "+
			"or add it to unlinkedKeep with the reason it stays", u)
	}
	for k := range unlinkedKeep {
		switch {
		case !declared[k]:
			t.Errorf("unlinkedKeep lists %s, which internal/ no longer declares: drop the entry", k)
		case !isUnlinked[k]:
			t.Errorf("unlinkedKeep lists %s, which a program now links: drop the entry", k)
		}
	}
	if len(decls) < 500 || len(linked) < 500 {
		t.Errorf("read %d declarations and %d linked symbols; the survey has lost the code", len(decls), len(linked))
	}
	t.Logf("%d functions declared under internal/, %d unlinked", len(decls), len(unlinked))
}

// stripTypeArgs removes a symbol's generic instantiation brackets, which nest
// and can hold spaces: cache.(*SingleFlight[go.shape.string,…]).Do reads as
// cache.(*SingleFlight).Do.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// internalFuncs returns every function and method declared in the non-test
// files under internal/ that this platform builds, as pkg.F, pkg.T.M or
// pkg.(*T).M, pkg being the package's path below internal/. Assembly
// declarations without a body and init functions are left out.
func internalFuncs(t *testing.T) []string {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(dir, "internal/"))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			if fd.Recv == nil {
				out = append(out, pkg+"."+fd.Name.Name)
				continue
			}
			recv := fd.Recv.List[0].Type
			typ := recvName(recv)
			if _, ptr := recv.(*ast.StarExpr); ptr {
				typ = "(*" + typ + ")"
			}
			out = append(out, pkg+"."+typ+"."+fd.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}
