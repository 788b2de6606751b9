package lotus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docNameFiles are the documents whose backticked names TestDocNames checks.
var docNameFiles = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	"perf/README.md",
	".claude/skills/verify/SKILL.md",
}

// TestDocNames holds the docs' backticked Go names, command flags, test
// names and DESIGN section references to the code. A name the code no
// longer has is a stale sentence, and the docs are to describe the system
// as it is (ROADMAP aim 2). It checks:
//
//   - pkg.Exported, pkg a module package: a top-level declaration, or a
//     method or field of a type in pkg (pkg.Type.Member, pkg.(*Type).Method);
//   - Type.Member and (*Type).Method: the member exists on a module type of
//     that name, following embedded fields;
//   - lotus-<cmd> -flag and perf -flag: the command's main.go defines it;
//   - Test*, Benchmark*, Fuzz*: a prefix of a test function, as -run reads
//     it (fenced code blocks too);
//   - DESIGN §N, in the docs and in Go comments, and every §N in DESIGN
//     itself: DESIGN.md has a "## N." heading.
//
// Lowercase keys (serve.hot_MBps) and Python names (Compose.__call__) are
// not Go names and are skipped.
func TestDocNames(t *testing.T) {
	idx := loadDocIndex(t)
	sections := designSections(t)
	checked := 0
	for _, file := range docNameFiles {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prose, fenced := splitFenced(string(b))
		spans := submatches(spanRE, prose)
		for _, span := range spans {
			for _, chain := range submatches(chainRE, span) {
				checked++
				if why := idx.resolve(chain); why != "" {
					t.Errorf("%s: `%s` %s", file, chain, why)
				}
			}
		}
		for _, text := range append(spans, fenced...) {
			for _, name := range testNameRE.FindAllString(text, -1) {
				checked++
				if !idx.testPrefix(name) {
					t.Errorf("%s: `%s` is not the prefix of any Test, Benchmark or Fuzz function", file, name)
				}
			}
			for _, cf := range commandFlags(text) {
				checked++
				if why := idx.flag(cf[0], cf[1]); why != "" {
					t.Errorf("%s: `%s` %s", file, cf[0]+" -"+cf[1], why)
				}
			}
		}
		refs := designRefRE
		if file == "DESIGN.md" {
			refs = sectionRE
		}
		for _, m := range refs.FindAllStringSubmatch(string(b), -1) {
			checked++
			if !sections[m[1]] {
				t.Errorf("%s: %q names no section of DESIGN.md", file, m[0])
			}
		}
	}
	for _, c := range idx.comments {
		for _, m := range designRefRE.FindAllStringSubmatch(c.text, -1) {
			checked++
			if !sections[m[1]] {
				t.Errorf("%s: comment %q names no section of DESIGN.md", c.pos, m[0])
			}
		}
	}
	if checked < 200 {
		t.Errorf("checked only %d names; the scanner has lost the docs", checked)
	}
	t.Logf("checked %d names", checked)
}

var (
	spanRE      = regexp.MustCompile("`([^`]+)`")
	chainRE     = regexp.MustCompile(`(?:^|[^\w/.*-])((?:\(\*[A-Za-z_]\w*\)|[A-Za-z_]\w*)(?:\.(?:\(\*[A-Za-z_]\w*\)|[A-Za-z_]\w*))+)`)
	testNameRE  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	cmdRE       = regexp.MustCompile(`(?:^|[\s/])(lotus-[a-z]+|perf)\b`)
	flagRE      = regexp.MustCompile(`^--?([a-z][\w-]*)(?:=.*)?$`)
	separatorRE = regexp.MustCompile(`[|;&>#,\n]`)
	designRefRE = regexp.MustCompile("DESIGN(?:\\.md)?`? ?§(\\d+)")
	sectionRE   = regexp.MustCompile(`§(\d+)`)
	headingRE   = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// splitFenced separates a Markdown file's fenced code blocks from its prose.
func splitFenced(s string) (prose string, fenced []string) {
	var p, f strings.Builder
	in := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if in {
				fenced = append(fenced, f.String())
				f.Reset()
			}
			in = !in
			p.WriteString("\n")
			continue
		}
		if in {
			f.WriteString(line)
		} else {
			p.WriteString(line)
		}
	}
	return p.String(), fenced
}

// submatches returns the first group of every match of re in s: the inline
// code spans of Markdown prose (spanRE), or the dotted names of a span
// (chainRE), which resolve then sorts into Go names and the rest.
func submatches(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// commandFlags returns the (command, flag) pairs of a span: each flag that
// follows lotus-<cmd> or perf before a shell separator, a comment, a comma,
// the end of the line or the next command.
func commandFlags(span string) [][2]string {
	var out [][2]string
	for _, seg := range separatorRE.Split(span, -1) {
		locs := cmdRE.FindAllStringSubmatchIndex(seg, -1)
		for i, loc := range locs {
			end := len(seg)
			if i+1 < len(locs) {
				end = locs[i+1][0]
			}
			cmd := seg[loc[2]:loc[3]]
			for _, tok := range strings.Fields(seg[loc[3]:end]) {
				if m := flagRE.FindStringSubmatch(tok); m != nil {
					out = append(out, [2]string{cmd, m[1]})
				}
			}
		}
	}
	return out
}

func designSections(t *testing.T) map[string]bool {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(b), -1) {
		out[m[1]] = true
	}
	return out
}

// docType is what TestDocNames knows of one declared type.
type docType struct {
	members  map[string]bool
	embedded []typeRef // embedded fields, aliased or underlying named type
}

type typeRef struct{ pkg, name string }

type docComment struct {
	file string
	pos  string
	text string
}

// docIndex is the module's declarations, read with go/parser.
type docIndex struct {
	pkgs     map[string]map[string]bool // package name → top-level names
	types    map[typeRef]*docType       // (package name, type) → members
	byName   map[string][]typeRef       // type name → every package declaring it
	flags    map[string]map[string]bool // command → flag names
	tests    []string                   // Test*, Benchmark*, Fuzz* functions
	comments []docComment               // every Go comment, for DESIGN §N and the present tense
}

func loadDocIndex(t *testing.T) *docIndex {
	idx := &docIndex{
		pkgs:   map[string]map[string]bool{},
		types:  map[typeRef]*docType{},
		byName: map[string][]typeRef{},
		flags:  map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			idx.comments = append(idx.comments, docComment{path, fset.Position(cg.Pos()).String(), cg.Text()})
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testNameRE.MatchString(fd.Name.Name) {
					idx.tests = append(idx.tests, fd.Name.Name)
				}
			}
			return nil
		}
		dir := filepath.Dir(path)
		if filepath.Base(path) == "main.go" && (strings.HasPrefix(dir, "cmd/") || dir == "perf") {
			idx.flags[filepath.Base(dir)] = flagNames(f)
		}
		if f.Name.Name != "main" {
			idx.addFile(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(idx.tests)
	return idx
}

// flagNames returns the names of the flags a command's main.go defines. A
// name that is not a string literal is left out, so a doc that cites that
// flag fails the check rather than passing unread.
func flagNames(f *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, call := range flagCalls(f) {
		arg := 0
		if strings.HasSuffix(call.Fun.(*ast.SelectorExpr).Sel.Name, "Var") {
			arg = 1
		}
		if arg < len(call.Args) {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					out[name] = true
				}
			}
		}
	}
	return out
}

func (idx *docIndex) addFile(f *ast.File) {
	pkg := f.Name.Name
	if idx.pkgs[pkg] == nil {
		idx.pkgs[pkg] = map[string]bool{}
	}
	top := idx.pkgs[pkg]
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := filepath.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = filepath.Base(p)
	}
	typ := func(name string) *docType {
		r := typeRef{pkg, name}
		if idx.types[r] == nil {
			idx.types[r] = &docType{members: map[string]bool{}}
			idx.byName[name] = append(idx.byName[name], r)
		}
		return idx.types[r]
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if name := recvName(d.Recv.List[0].Type); name != "" {
				typ(name).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					dt := typ(s.Name.Name)
					idx.addMembers(dt, pkg, imports, s.Type)
				}
			}
		}
	}
}

// addMembers records a type's fields, interface methods and embedded or
// underlying named types.
func (idx *docIndex) addMembers(dt *docType, pkg string, imports map[string]string, expr ast.Expr) {
	switch e := expr.(type) {
	case *ast.StructType:
		for _, fld := range e.Fields.List {
			if len(fld.Names) == 0 {
				if r, ok := namedRef(pkg, imports, fld.Type); ok {
					dt.embedded = append(dt.embedded, r)
					dt.members[r.name] = true
				}
			}
			for _, n := range fld.Names {
				dt.members[n.Name] = true
			}
		}
	case *ast.InterfaceType:
		for _, m := range e.Methods.List {
			if len(m.Names) == 0 {
				if r, ok := namedRef(pkg, imports, m.Type); ok {
					dt.embedded = append(dt.embedded, r)
				}
			}
			for _, n := range m.Names {
				dt.members[n.Name] = true
			}
		}
	default:
		if r, ok := namedRef(pkg, imports, expr); ok {
			dt.embedded = append(dt.embedded, r)
		}
	}
}

// namedRef resolves a type expression to the named type it denotes.
func namedRef(pkg string, imports map[string]string, expr ast.Expr) (typeRef, bool) {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return namedRef(pkg, imports, e.X)
	case *ast.IndexExpr:
		return namedRef(pkg, imports, e.X)
	case *ast.IndexListExpr:
		return namedRef(pkg, imports, e.X)
	case *ast.Ident:
		return typeRef{pkg, e.Name}, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return typeRef{imports[x.Name], e.Sel.Name}, true
		}
	}
	return typeRef{}, false
}

// recvName returns the type name of a method receiver.
func recvName(expr ast.Expr) string {
	if r, ok := namedRef("", nil, expr); ok {
		return r.name
	}
	return ""
}

// hasMember reports whether type r, or a type it embeds, has member m.
func (idx *docIndex) hasMember(r typeRef, m string, seen map[typeRef]bool) bool {
	dt := idx.types[r]
	if dt == nil || seen[r] {
		return false
	}
	seen[r] = true
	if dt.members[m] {
		return true
	}
	for _, e := range dt.embedded {
		if idx.hasMember(e, m, seen) {
			return true
		}
	}
	return false
}

// resolve checks one dotted name and returns why it is stale, or "".
func (idx *docIndex) resolve(chain string) string {
	parts := strings.Split(chain, ".")
	for i, p := range parts {
		parts[i] = strings.TrimSuffix(strings.TrimPrefix(p, "(*"), ")")
	}
	head := parts[0]
	if _, isPkg := idx.pkgs[head]; isPkg && !strings.HasPrefix(chain, "(*") {
		if !isExported(parts[1]) {
			return "" // a metric key or file name, not a Go name
		}
		if !idx.pkgs[head][parts[1]] && !idx.pkgMember(head, parts[1]) {
			return "is neither declared in package " + head + " nor a member of one of its types"
		}
		if len(parts) > 2 && isGoName(parts[2]) {
			if _, isType := idx.types[typeRef{head, parts[1]}]; isType && !idx.hasMember(typeRef{head, parts[1]}, parts[2], map[typeRef]bool{}) {
				return head + "." + parts[1] + " has no member " + parts[2]
			}
		}
		return ""
	}
	if !isExported(head) || !isGoName(parts[1]) {
		return ""
	}
	refs := idx.byName[head]
	if len(refs) == 0 {
		return "names no module type " + head
	}
	for _, r := range refs {
		if idx.hasMember(r, parts[1], map[typeRef]bool{}) {
			return ""
		}
	}
	return "no module type " + head + " has a member " + parts[1]
}

func isExported(s string) bool {
	return s != "" && unicode.IsUpper(rune(s[0]))
}

// fileExts are the extensions a backticked file name ends in.
var fileExts = map[string]bool{"go": true, "md": true, "s": true, "json": true, "tmp": true, "txt": true, "seg": true}

// isGoName reports whether s reads as a Go identifier and not a Python
// dunder or a file extension.
func isGoName(s string) bool {
	return s != "" && !strings.HasPrefix(s, "_") && !fileExts[s]
}

// pkgMember reports whether some type of package pkg has member m.
func (idx *docIndex) pkgMember(pkg, m string) bool {
	for r, dt := range idx.types {
		if r.pkg == pkg && dt.members[m] {
			return true
		}
	}
	return false
}

// testPrefix reports whether name is a prefix of a test function's name.
func (idx *docIndex) testPrefix(name string) bool {
	i := sort.SearchStrings(idx.tests, name)
	return i < len(idx.tests) && strings.HasPrefix(idx.tests[i], name)
}

// flag checks that command cmd defines flag name.
func (idx *docIndex) flag(cmd, name string) string {
	flags, ok := idx.flags[cmd]
	if !ok {
		return "names a command with no main.go under cmd/"
	}
	if !flags[name] {
		return "is not a flag of " + cmd
	}
	return ""
}

// TestReadmeInventory holds README.md's Architecture tree to the module's
// layout: every directory under internal/ that holds Go code appears in the
// tree as its path below internal/ ("store/", "core/trace/"), and every
// cmd/lotus-* command is named there in full.
func TestReadmeInventory(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	i := strings.Index(s, "\n## Architecture\n")
	if i < 0 {
		t.Fatal("README.md has no ## Architecture section")
	}
	_, fenced := splitFenced(s[i:])
	if len(fenced) == 0 {
		t.Fatal("README.md's Architecture section has no fenced tree")
	}
	tree := fenced[0]
	dirs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel("internal", filepath.Dir(path))
			dirs[filepath.ToSlash(rel)+"/"] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no Go packages found under internal/")
	}
	for name := range dirs {
		if !regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(name) + `(\s|$)`).MatchString(tree) {
			t.Errorf("README.md's Architecture tree has no line for internal/%s", name)
		}
	}
	cmds, err := filepath.Glob("cmd/lotus-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no cmd/lotus-* commands found")
	}
	for _, c := range cmds {
		name := filepath.Base(c)
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(tree) {
			t.Errorf("README.md's Architecture tree does not name %s", name)
		}
	}
}

// TestExperimentsTable2 holds EXPERIMENTS.md's Table II to
// results/table2.txt: each "measured" cell of the IC, IS and OD rows is that
// workload's Avg row rounded to the cell's decimals, and each "paper" cell
// its "paper Avg" row. It holds the ablations' numbers to
// results/extensions.txt the same way.
func TestExperimentsTable2(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile("results/table2.txt")
	if err != nil {
		t.Fatal(err)
	}
	// results: workload → row label → values.
	avg := map[string]map[string][]string{}
	var wl string
	for _, line := range strings.Split(string(res), "\n") {
		if m := table2HeadRE.FindStringSubmatch(line); m != nil {
			wl = m[1]
			avg[wl] = map[string][]string{}
			continue
		}
		for _, label := range []string{"paper Avg", "Avg"} {
			if rest, ok := strings.CutPrefix(line, label+" "); ok && wl != "" {
				avg[wl][label] = strings.Fields(rest)
				break
			}
		}
	}
	rows := 0
	for _, line := range strings.Split(string(doc), "\n") {
		m := table2RowRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		wl, ops := m[1], strings.Split(m[2], " / ")
		for _, col := range []struct{ name, cells, label string }{
			{"paper", m[3], "paper Avg"},
			{"measured", m[4], "Avg"},
		} {
			cells, want := strings.Split(col.cells, " / "), avg[wl][col.label]
			if len(cells) != len(ops) || len(want) != len(ops) {
				t.Errorf("Table II row %s: %d ops, %d %s cells, %d values in results/table2.txt's %q row",
					wl, len(ops), len(cells), col.name, len(want), col.label)
				continue
			}
			for i, cell := range cells {
				v, err := strconv.ParseFloat(want[i], 64)
				if err != nil {
					t.Errorf("Table II row %s op %s: results/table2.txt %q value %q: %v", wl, ops[i], col.label, want[i], err)
					continue
				}
				if got := atPrecision(v, cell); got != cell {
					t.Errorf("Table II row %s op %s: %s cell %s, but results/table2.txt's %q row reads %s (%s at the cell's precision)",
						wl, ops[i], col.name, cell, col.label, want[i], got)
				}
			}
		}
	}
	if rows != 3 || len(avg) != 3 {
		t.Errorf("found %d Table II rows in EXPERIMENTS.md and %d workloads in results/table2.txt, want 3 and 3", rows, len(avg))
	}

	ext, err := os.ReadFile("results/extensions.txt")
	if err != nil {
		t.Fatal(err)
	}
	prose := strings.Join(strings.Fields(string(doc)), " ")
	for _, c := range ablations {
		cells, want := c.doc.FindStringSubmatch(prose), c.res.FindStringSubmatch(string(ext))
		if cells == nil || want == nil {
			t.Errorf("ablation %s: EXPERIMENTS.md matches %q, results/extensions.txt matches %q", c.name, cells, want)
			continue
		}
		for i, cell := range cells[1:] {
			v, err := strconv.ParseFloat(want[i+1], 64)
			if err != nil {
				t.Fatalf("ablation %s: results/extensions.txt value %q: %v", c.name, want[i+1], err)
			}
			if got := atPrecision(v, cell); got != cell {
				t.Errorf("ablation %s: EXPERIMENTS.md says %s, but results/extensions.txt reads %s (%s at the doc's precision)",
					c.name, cell, want[i+1], got)
			}
		}
	}
}

// atPrecision formats v with as many decimals as cell has.
func atPrecision(v float64, cell string) string {
	dec := 0
	if j := strings.IndexByte(cell, '.'); j >= 0 {
		dec = len(cell) - j - 1
	}
	return strconv.FormatFloat(v, 'f', dec, 64)
}

// ablations pairs each ablation's numbers in EXPERIMENTS.md's prose (its
// whitespace folded to single spaces) with the same numbers, in the same
// order, in results/extensions.txt.
var ablations = []struct {
	name     string
	doc, res *regexp.Regexp
}{
	{"dispatch arrivals", regexp.MustCompile(`out-of-order arrivals \((\d+)→(\d+)\)`),
		regexp.MustCompile(`producer \(PyTorch\): +(\d+) OOO arrivals.*\n.*least-work\S*: +(\d+) OOO arrivals`)},
	{"dispatch delay", regexp.MustCompile(`max batch delay \((\d+)→(\d+) ms\)`),
		regexp.MustCompile(`producer \(PyTorch\):.*max delay (\d+)ms\n.*least-work\S*:.*max delay (\d+)ms`)},
	{"offline decode", regexp.MustCompile(`cuts the IC epoch ([\d.]+) s → ([\d.]+) s`),
		regexp.MustCompile(`online: +epoch ([\d.]+)s.*\n +offline: +epoch ([\d.]+)s`)},
	{"autotune", regexp.MustCompile(`IC's sweep runs all (\d+) evaluations .*? stops after (\d+)\.`),
		regexp.MustCompile(`IC: (\d+) evaluations.*\n +IS: (\d+) evaluations`)},
}

var (
	table2HeadRE = regexp.MustCompile(`^--- (\w+) \(`)
	table2RowRE  = regexp.MustCompile(`^\| (IC|IS|OD): ([^|]+?) \| ([^|]+?) \| ([^|]+?) \|$`)
)
