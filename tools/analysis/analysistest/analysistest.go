// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against expectations embedded in the fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest without the x/tools
// dependency.
//
// Fixtures live under <analyzer pkg>/testdata/src/<name>/ and are plain Go
// files (never built into the module — the go tool skips testdata). A line
// expecting diagnostics carries a trailing comment of the form
//
//	x := a * b // want `overflow` `second diagnostic`
//
// Each backquoted string is a regular expression that must match the message
// of exactly one diagnostic reported on that line; diagnostics without a
// matching expectation, and expectations without a matching diagnostic, fail
// the test.
//
// Fixture packages are type-checked against the standard library via the
// source importer (offline: it parses $GOROOT/src), so they may import std
// packages such as sync or sync/atomic.
//
// Fixtures may also depend on each other: Run compiles the named fixture
// packages in argument order and registers each under its directory name, so
// a later fixture can `import "mempool"` when testdata/src/mempool was named
// first. Dependency fixtures let analyzers that key on package names
// (poolescape on mempool) see realistic typed call sites without importing
// the real module, mirroring x/tools
// analysistest's GOPATH-style fixture imports. The analyzer runs over
// dependency fixtures too, so they can carry `want` expectations (or assert
// cleanliness by carrying none).
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"fastcc/tools/analysis/framework"
)

// TestData returns the absolute path of the calling package's testdata dir.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// The source importer re-type-checks stdlib dependencies from $GOROOT/src on
// every fresh instance; share one across all fixtures in a test binary.
var (
	importerOnce sync.Once
	sharedImp    types.Importer
	sharedFset   = token.NewFileSet()
)

func stdImporter() types.Importer {
	importerOnce.Do(func() {
		sharedImp = importer.ForCompiler(sharedFset, "source", nil)
	})
	return sharedImp
}

// fixtureImporter resolves imports against already-compiled sibling fixture
// packages first, falling back to the shared stdlib source importer.
type fixtureImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.local[path]; ok {
		return p, nil
	}
	return fi.std.Import(path)
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want((?: +`[^`]*`)+)")
var wantArgRe = regexp.MustCompile("`([^`]*)`")

// Run loads testdata/src/<name> for each named fixture package, applies the
// analyzer to each fixture package in isolation, in argument order, and
// reports mismatches through t.
func Run(t *testing.T, testdata string, a *framework.Analyzer, fixtures ...string) {
	t.Helper()
	imp := fixtureImporter{local: map[string]*types.Package{}, std: stdImporter()}
	for _, name := range fixtures {
		dir := filepath.Join(testdata, "src", name)
		pkg := runDir(t, dir, a, imp)
		if pkg != nil {
			imp.local[name] = pkg
		}
	}
}

// loadDir parses and type-checks one fixture directory, returning the loaded
// package and the per-file expectations.
func loadDir(t *testing.T, dir string, imp types.Importer) (*framework.Package, map[string]map[int][]*expectation) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	want := map[string]map[int][]*expectation{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(sharedFset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		want[path] = parseExpectations(t, string(src))
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	info := framework.NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(filepath.Base(dir), sharedFset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &framework.Package{
		ImportPath: filepath.Base(dir),
		Dir:        dir,
		Fset:       sharedFset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
	}, want
}

// matchExpectations pairs reported diagnostics with `want` expectations and
// reports both unexpected diagnostics and unmatched expectations through t.
func matchExpectations(t *testing.T, diags []framework.Diagnostic, want map[string]map[int][]*expectation) {
	t.Helper()
	for _, d := range diags {
		pos := sharedFset.Position(d.Pos)
		exps := want[pos.Filename][pos.Line]
		ok := false
		for _, exp := range exps {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	var lines []int
	for file, byLine := range want {
		lines = lines[:0]
		for ln := range byLine {
			lines = append(lines, ln)
		}
		sort.Ints(lines)
		for _, ln := range lines {
			for _, exp := range byLine[ln] {
				if !exp.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, ln, exp.re)
				}
			}
		}
	}
}

func runDir(t *testing.T, dir string, a *framework.Analyzer, imp types.Importer) *types.Package {
	t.Helper()
	fpkg, want := loadDir(t, dir, imp)

	var diags []framework.Diagnostic
	sup := framework.CollectSuppressions(sharedFset, fpkg.Files)
	pass := &framework.Pass{
		Analyzer:  a,
		Fset:      sharedFset,
		Files:     fpkg.Files,
		Pkg:       fpkg.Pkg,
		TypesInfo: fpkg.TypesInfo,
		Report: func(d framework.Diagnostic) {
			if !sup.Allows(sharedFset, d) {
				diags = append(diags, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	matchExpectations(t, diags, want)
	return fpkg.Pkg
}

func parseExpectations(t *testing.T, src string) map[int][]*expectation {
	t.Helper()
	out := map[int][]*expectation{}
	for i, line := range strings.Split(src, "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(arg[1])
			if err != nil {
				t.Fatalf("bad want regexp %q: %v", arg[1], err)
			}
			out[i+1] = append(out[i+1], &expectation{re: re})
		}
	}
	return out
}
