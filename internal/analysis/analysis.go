// Package analysis is lard's static-analysis suite: a set of analyzers
// that mechanically enforce the repo's cross-layer invariants, the ones
// that otherwise live only in reviewer memory and postmortems.
//
//   - keyneutral: key-bearing structs carry explicit json tags, and
//     json:"-" side channels are never read inside key canonicalization
//     (the PR-2 "silently simulating the wrong config" bug class).
//   - registrydiscipline: no switch/if ladders on scheme kind outside the
//     internal/coherence scheme table and schemes.go.
//   - buslockorder: the engine's lock order is e.mu before bus.mu — bus
//     methods never call back into the Engine — blocking channel sends
//     never happen under a held mutex, and every locally started span is
//     ended on all return paths.
//   - obshygiene: internal packages log via slog only, metric-name string
//     literals satisfy the obs.Lint legality rules at compile time, and
//     histogram constructors get literal ascending buckets.
//   - ctxflow: handler and dispatch code holding a ctx (or an
//     *http.Request) threads it instead of minting context.Background().
//   - checkederr: store I/O paths never silently drop an error.
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape but is
// built on the standard library alone (go/ast, go/types, go/importer):
// this module is dependency-free by policy, and the vet tool protocol
// (cmd/lard-lint) plus the analysistest harness need nothing more.
//
// Intentional exceptions are declared in the code, never in a config
// file: a `//lint:allow <analyzer> <reason>` comment on the flagged line
// (or the line above it) suppresses that analyzer's diagnostics for that
// line. The reason is mandatory — an allow without one is itself a
// diagnostic — so every suppression is explicit and grep-able.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, the unit the driver and the
// tests run. The shape deliberately mirrors x/tools' analysis.Analyzer so
// the suite could migrate onto the real framework without rewriting any
// checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments.
	Name string
	// Doc is the one-paragraph description `lard-lint -list` prints.
	Doc string
	// Run inspects one package via pass and reports findings with
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state into an
// analyzer run.
type Pass struct {
	// Analyzer is the check this pass executes.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the package's syntax trees (test files included when the
	// loader saw them; analyzers skip _test.go via IsTestFile).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression/object tables.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The suite's invariants target production code; tests may legitimately
// enumerate schemes, print, or build throwaway contexts.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding: where, what, and which analyzer said so.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// RunAnalyzers executes every analyzer over one package and returns the
// surviving diagnostics: findings not suppressed by a well-formed
// //lint:allow comment, plus one diagnostic per malformed suppression.
// Results are ordered by position for stable output.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	// Suppressions may name any analyzer of the full suite, not just the
	// ones running now: a partial run (tests exercise one analyzer at a
	// time) must not misreport another analyzer's allow as unknown.
	allows, malformed := collectAllows(fset, files, append(All(), analyzers...))
	diags = filterSuppressed(fset, diags, allows)
	diags = append(diags, malformed...)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// All returns the full suite in the order diagnostics should be grouped.
func All() []*Analyzer {
	return []*Analyzer{
		KeyNeutralAnalyzer,
		RegistryDisciplineAnalyzer,
		BusLockOrderAnalyzer,
		ObsHygieneAnalyzer,
		CtxFlowAnalyzer,
		CheckedErrAnalyzer,
	}
}
