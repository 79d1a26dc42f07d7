package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
)

// coherencePkg holds the scheme table; schemesFile is its wire-level half
// in the facade. Together they are the only places allowed to branch on
// scheme identity — everywhere else must go through the table, or the
// next scheme lands as a switch-ladder edit in five layers again.
const (
	coherencePkg = "lard/internal/coherence"
	facadePkg    = "lard"
	schemesFile  = "schemes.go"
)

// RegistryDisciplineAnalyzer keeps scheme dispatch in the scheme tables:
// internal/coherence and the facade's schemes.go may branch on scheme
// identity, nothing else may use a switch or if-ladder on it. The tables'
// completeness is checked by their own tests, not here.
var RegistryDisciplineAnalyzer = &Analyzer{
	Name: "registrydiscipline",
	Run:  runRegistryDiscipline,
}

func runRegistryDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		if pass.Pkg.Path() == coherencePkg {
			continue // the scheme table's package may branch on schemes freely
		}
		if pass.Pkg.Path() == facadePkg &&
			filepath.Base(pass.Fset.Position(f.Pos()).Filename) == schemesFile {
			continue // the wire-level table
		}
		checkNoSchemeLadders(pass, f)
	}
	return nil
}

// checkNoSchemeLadders flags switch statements and if-condition equality
// ladders that branch on scheme identity: a coherence.Scheme value or a
// lard.Scheme Kind string.
func checkNoSchemeLadders(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SwitchStmt:
			if stmt.Tag != nil && isSchemeExpr(pass, stmt.Tag) {
				pass.Reportf(stmt.Pos(),
					"switch on scheme kind outside the policy registry: add the decision to the "+
						"scheme's Descriptor/schemeDef in %s (or %s) instead of a switch ladder",
					coherencePkg, schemesFile)
				return true
			}
			// A tagless switch whose cases compare scheme identity is the
			// same ladder in disguise.
			if stmt.Tag == nil {
				for _, clause := range stmt.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, cond := range cc.List {
						if pos, ok := schemeComparison(pass, cond); ok {
							reportLadder(pass, pos)
						}
					}
				}
			}
		case *ast.IfStmt:
			if pos, ok := schemeComparison(pass, stmt.Cond); ok {
				reportLadder(pass, pos)
			}
		}
		return true
	})
}

func reportLadder(pass *Pass, pos token.Pos) {
	pass.Reportf(pos,
		"comparison on scheme kind outside the policy registry: route the decision through the "+
			"scheme's Descriptor/schemeDef in %s (or %s) so new schemes need no ladder edits",
		coherencePkg, schemesFile)
}

// schemeComparison reports whether expr contains an ==/!= comparison
// whose operand is scheme identity.
func schemeComparison(pass *Pass, expr ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isSchemeExpr(pass, be.X) || isSchemeExpr(pass, be.Y) {
			if !found {
				pos, found = be.Pos(), true
			}
		}
		return true
	})
	return pos, found
}

// isSchemeExpr reports whether e denotes scheme identity: a value of
// type coherence.Scheme, or the Kind field of the facade's wire Scheme.
func isSchemeExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if t := pass.TypesInfo.TypeOf(e); t != nil && typeIs(t, coherencePkg, "Scheme") {
		return true
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "Kind" {
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil && typeIs(t, facadePkg, "Scheme") {
			return true
		}
	}
	return false
}
