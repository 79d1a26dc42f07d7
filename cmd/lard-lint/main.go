// Command lard-lint runs lard's static-analysis suite (internal/analysis)
// as a vet tool:
//
//	go build -o /tmp/lard-lint ./cmd/lard-lint
//	go vet -vettool=/tmp/lard-lint ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lard/internal/analysis"
)

// main speaks the go command's vet-tool protocol: `go vet
// -vettool=lard-lint` invokes the tool once with -V=full (identity
// handshake), once with -flags (flag discovery), and then once per
// package with a .cfg file describing the compiled unit, type-checked
// through the export data the go command already built.
func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		handshake()
	case len(args) == 1 && args[0] == "-flags":
		// No tool-specific flags: the suite always runs whole.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runUnit(args[0]))
	default:
		fatalf("run me through the go command: go vet -vettool=<path to lard-lint> ./...")
	}
}

// handshake answers `-V=full` with the identity line the go command
// caches vet results under: name, version, and a content hash of the
// tool binary, so rebuilding lard-lint invalidates stale vet caches.
func handshake() {
	progname := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fatalf("cannot locate own executable: %v", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatalf("cannot read own executable: %v", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatalf("cannot hash own executable: %v", err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// unitConfig mirrors the JSON the go command writes for each vet unit
// (cmd/go's vetConfig). Fields we do not consume are listed anyway so
// the decoder documents the full protocol.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one compiled package unit and returns the process
// exit code: 0 clean, 1 operational failure, 2 diagnostics found.
func runUnit(cfgFile string) int {
	raw, err := os.ReadFile(cfgFile)
	if err != nil {
		fatalf("reading vet config: %v", err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatalf("parsing vet config %s: %v", cfgFile, err)
	}

	// The go command treats the vetx file as the unit's build artifact
	// and requires it even though this suite exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatalf("writing vetx output: %v", err)
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, and we have none
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}

	// Resolve imports through the export data the go command already
	// compiled: ImportMap canonicalizes the path (vendoring), then
	// PackageFile locates the unit's export file.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("cannot resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(cfg.Compiler, build.Default.GOARCH),
	}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
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
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	diags, err := analysis.RunAnalyzers(fset, files, pkg, info, analysis.All())
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lard-lint: "+format+"\n", args...)
	os.Exit(1)
}
