package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

const supSrc = `package p

func f() int {
	x := 1 //fastcc:allow linovf -- same line
	//fastcc:allow hotalloc,spanarith -- line above
	y := 2
	z := 3
	return x + y + z
}
`

func TestSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", supSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := CollectSuppressions(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "linovf", true},
		{4, "hotalloc", false},
		{5, "hotalloc", true},
		{6, "hotalloc", true},
		{6, "spanarith", true},
		{6, "linovf", false},
		{7, "hotalloc", false},
	}
	for _, c := range cases {
		d := Diagnostic{Pos: posForLine(fset, c.line), Analyzer: c.analyzer}
		if got := sup.Allows(fset, d); got != c.want {
			t.Errorf("line %d analyzer %s: Allows = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// posForLine fabricates a Pos on the given line of the single test file.
func posForLine(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestModuleRoot(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("ModuleRoot(.) = %q, which has no go.mod: %v", root, err)
	}
}

func TestLoadTypeChecks(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/scheduler"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Pkg == nil || p.Pkg.Scope().Lookup("Pool") == nil {
		t.Errorf("scheduler package missing Pool in scope; type info incomplete")
	}
	if len(p.TypesInfo.Uses) == 0 {
		t.Errorf("no Uses recorded; type info incomplete")
	}
}

// TestLoadOutOfPatternDependency loads two pattern packages joined through a
// third that is outside the pattern: the root package passes tnsbin.Read's
// *coo.Tensor on as its own *coo.Tensor. If the loader imported tnsbin from
// export data, tnsbin would carry a second copy of coo and the root package
// would fail to type-check.
func TestLoadOutOfPatternDependency(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/coo", "."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	if len(got) != 2 || got[0] != "fastcc" || got[1] != "fastcc/internal/coo" {
		t.Fatalf("Load returned %v, want only the pattern packages [fastcc fastcc/internal/coo]", got)
	}
}
