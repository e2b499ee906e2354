package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves the package patterns with the go tool, compiles export data
// for every dependency (`go list -export -deps`), and type-checks every
// non-standard package — the pattern-matched ones and their dependencies —
// from source, importing only the standard library from export data. This
// keeps the loader fully offline: no network, no GOPATH source resolution —
// the build cache supplies every import. Only the pattern-matched packages
// are returned.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(out)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("framework: decoding go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("framework: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		p := lp
		targets = append(targets, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("framework: go list: %v\n%s", err, stderr.String())
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	// Type-check packages in dependency order so each one imports its
	// non-standard dependencies as the SAME *types.Package that was checked
	// from source, not a parallel export-data universe. Out-of-pattern
	// dependencies are checked from source too: an export-data copy of one
	// would bring in its own copies of the packages it imports, so a
	// pattern package handing a value between the two would fail to
	// type-check. Export data supplies only the standard library.
	targetSet := map[string]*listPackage{}
	for _, lp := range targets {
		targetSet[lp.ImportPath] = lp
	}
	ordered := make([]*listPackage, 0, len(targets))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(lp *listPackage)
	visit = func(lp *listPackage) {
		if state[lp.ImportPath] != 0 {
			return // done, or a cycle go list would have rejected
		}
		state[lp.ImportPath] = 1
		for _, dep := range lp.Imports {
			if t, ok := targetSet[dep]; ok {
				visit(t)
			}
		}
		state[lp.ImportPath] = 2
		ordered = append(ordered, lp)
	}
	for _, lp := range targets {
		visit(lp)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("framework: no export data for %q", path)
		}
		return os.Open(f)
	}
	checked := map[string]*types.Package{}
	imp := &sourceFirstImporter{
		checked:  checked,
		fallback: importer.ForCompiler(fset, "gc", lookup),
	}

	var pkgs []*Package
	for _, lp := range ordered {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(lp.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("framework: %w", err)
			}
			files = append(files, f)
		}
		info := NewTypesInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("framework: type-checking %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		if lp.DepOnly {
			continue
		}
		pkgs = append(pkgs, &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
		})
	}
	// Callers expect pattern order (alphabetical), not check order.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// sourceFirstImporter resolves imports to already source-checked packages
// by identity, falling back to compiled export data for everything else
// (the standard library).
type sourceFirstImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (imp *sourceFirstImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.checked[path]; ok {
		return pkg, nil
	}
	return imp.fallback.Import(path)
}

// NewTypesInfo returns a types.Info with every map analyzers rely on.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// RunAnalyzers applies every analyzer to each package in turn and returns
// the surviving (non-suppressed) diagnostics in file/line order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		sup := CollectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				if !sup.Allows(pkg.Fset, d) {
					diags = append(diags, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("framework: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	if fset != nil {
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, fset, nil
}

// ModuleRoot walks upward from dir to the directory holding go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("framework: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Format renders a diagnostic the way go vet does.
func Format(fset *token.FileSet, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	// Print paths relative to the working directory when possible; keeps
	// driver output stable across checkouts.
	name := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", name, pos.Line, pos.Column, d.Analyzer, d.Message)
}
