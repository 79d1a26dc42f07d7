package analysis

import (
	"go/ast"
	"go/types"
)

// checkedErrPkgs are the durability layers: an error dropped here is a
// result silently not persisted (or a corrupt entry silently served),
// which the caller then trusts as a cache hit forever.
var checkedErrPkgs = map[string]bool{
	"lard/internal/resultstore": true,
}

// CheckedErrAnalyzer flags silently dropped errors on store I/O paths: a
// call whose error result is discarded because the call is a bare
// statement or a defer. An explicit discard (`_ = f.Close()`) stays
// visible and grep-able; a bare statement hides the decision entirely.
var CheckedErrAnalyzer = &Analyzer{
	Name: "checkederr",
	Run:  runCheckedErr,
}

func runCheckedErr(pass *Pass) error {
	if !checkedErrPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && returnsError(pass, call) {
					pass.Reportf(s.Pos(),
						"error result of %s dropped on a store I/O path: a failed write here "+
							"becomes a silent cache miss (or worse, a trusted partial entry) — handle "+
							"it or `_ =` it deliberately", callName(call))
				}
			case *ast.DeferStmt:
				if returnsError(pass, s.Call) {
					pass.Reportf(s.Pos(),
						"deferred %s drops its error on a store I/O path: wrap it in a closure "+
							"that records the error (or `defer func() { _ = ... }()` deliberately)",
						callName(s.Call))
				}
			}
			return true
		})
	}
	return nil
}

// returnsError reports whether any result of call is the error type.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callName renders a short name for the called function.
func callName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return "call"
}
