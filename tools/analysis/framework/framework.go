// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// sufficient to host FaSTCC's custom vet checks. The container this repo is
// built in has no module network access, so instead of importing x/tools we
// mirror its shape on the standard library: analyzers receive a type-checked
// package and report position-tagged diagnostics; drivers (cmd/fastcc-vet,
// the analysistest harness) load packages and collect reports.
//
// Suppression: a diagnostic is dropped when the line it points at, or the
// line above, carries a comment of the form
//
//	//fastcc:allow name1,name2 -- optional justification
//
// naming the analyzer (or the word "all"). This is the repo's equivalent of
// //nolint, kept deliberately narrow: one line, named analyzers, visible in
// review diffs.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one static check, run on one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //fastcc:allow
	// suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install this; analyzers call
	// Reportf instead.
	Report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Preorder walks every file of the pass in depth-first preorder, calling fn
// for each node. A nil-returning shorthand over ast.Inspect for analyzers
// that do not need to prune subtrees.
func (p *Pass) Preorder(fn func(ast.Node)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

var allowRe = regexp.MustCompile(`fastcc:allow\s+([a-zA-Z0-9_,]+)`)

// Suppressions records, per file and line, which analyzer names are allowed.
type Suppressions map[string]map[int]map[string]bool

// CollectSuppressions scans the comments of files for //fastcc:allow
// directives. A directive covers its own line and the line below, so it can
// sit either at the end of the offending line or alone just above it.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	sup := Suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					sup[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = map[string]bool{}
						}
						lines[ln][name] = true
					}
				}
			}
		}
	}
	return sup
}

// Allows reports whether a diagnostic from the named analyzer at the given
// position is suppressed.
func (s Suppressions) Allows(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	names := lines[pos.Line]
	return names["all"] || names[d.Analyzer]
}

// CollectLineMarkers records, per file, the lines covered by a
// //fastcc:<marker> comment. Like //fastcc:allow directives, a marker covers
// its own line and the line below, so it can sit at the end of the marked
// statement or alone just above it. Analyzers use this for ownership
// directives such as //fastcc:owned (poolescape) that are assertions about
// the code rather than suppressions of a finding class.
func CollectLineMarkers(fset *token.FileSet, files []*ast.File, marker string) map[string]map[int]bool {
	want := "fastcc:" + marker
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, want) {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					out[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return out
}

// MarkedAt reports whether the marker map collected by CollectLineMarkers
// covers the given position.
func MarkedAt(fset *token.FileSet, markers map[string]map[int]bool, pos token.Pos) bool {
	p := fset.Position(pos)
	return markers[p.Filename][p.Line]
}

// FuncHasMarker reports whether the function declaration carries the given
// //fastcc:<marker> directive in its doc comment (e.g. "hotpath").
func FuncHasMarker(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	want := "fastcc:" + marker
	for _, c := range fn.Doc.List {
		if strings.Contains(c.Text, want) {
			return true
		}
	}
	return false
}

// IsBuiltin reports whether the call expression invokes the named builtin
// (make, new, append, ...), resolved through the type checker so shadowed
// identifiers do not count.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// CalleeFunc returns the *types.Func a call statically resolves to, or nil
// for builtins, conversions and dynamic calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
