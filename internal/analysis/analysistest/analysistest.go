// Package analysistest runs one analyzer over a tree of fixture
// packages and checks its diagnostics against // want comments, the
// same contract as golang.org/x/tools' package of the same name but
// loading entirely from source so the suite needs no export data and
// no network.
//
// A fixture root holds src/<importpath>/*.go. Import paths are resolved
// inside the same root, so fixtures declare fake shims for exactly the
// packages the analyzer keys on (a ten-line "sync", a "lard/internal/obs"
// with just Tracer/Span) instead of dragging in the real dependencies.
//
// Expectations ride on the flagged line:
//
//	ch <- v // want `blocking channel send`
//
// Each diagnostic must match one want regexp on its line and each want
// must be consumed by exactly one diagnostic; anything unmatched on
// either side fails the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lard/internal/analysis"
)

// Run loads every import path under root/src that pkgs names, runs a
// over each, and matches diagnostics against // want comments.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		fset:   token.NewFileSet(),
		srcDir: filepath.Join(root, "src"),
		pkgs:   map[string]*loaded{},
	}
	for _, path := range pkgs {
		lp, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", path, err)
		}
		diags, err := analysis.RunAnalyzers(ld.fset, lp.files, lp.pkg, lp.info, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, ld.fset, lp.files, diags)
	}
}

// loaded is one type-checked fixture package.
type loaded struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves fixture imports from source, recursively, with a
// cache so shared shims type-check once.
type loader struct {
	fset   *token.FileSet
	srcDir string
	pkgs   map[string]*loaded
}

func (ld *loader) load(path string) (*loaded, error) {
	if lp, ok := ld.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return lp, nil
	}
	ld.pkgs[path] = nil // cycle guard

	dir := filepath.Join(ld.srcDir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tc := &types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		lp, err := ld.load(p)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	})}
	pkg, err := tc.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loaded{files: files, pkg: pkg, info: info}
	ld.pkgs[path] = lp
	return lp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// wantRE extracts the backquoted regexps of a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// want is one expected diagnostic.
type want struct {
	re       *regexp.Regexp
	raw      string
	consumed bool
}

// checkWants matches diagnostics against want comments line by line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*want{} // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text[i+len("// want "):], -1) {
					raw := m[1]
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], &want{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.consumed && w.re.MatchString(d.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic (%s): %s", key, d.Analyzer, d.Message)
		}
	}

	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.consumed {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.raw)
			}
		}
	}
}
