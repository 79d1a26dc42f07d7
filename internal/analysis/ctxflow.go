package analysis

import (
	"go/ast"
)

// CtxFlowAnalyzer enforces context threading: a function that was handed
// a context.Context (or an *http.Request, which carries one) must thread
// it, not mint a fresh context.Background()/TODO(). A detached context
// severs cancellation — the client hangs up, the handler returns, and
// the simulation keeps burning a worker because the ctx it got never
// heard about it.
//
// Only the innermost function's own parameters count: a function without
// a ctx of its own (the engine's worker loop, a detached janitor
// goroutine) is legitimately the root of a new context tree.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkCtxFlowFile(pass, f)
	}
	return nil
}

func checkCtxFlowFile(pass *Pass, f *ast.File) {
	funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		var ftype *ast.FuncType
		where := "function literal"
		if decl != nil {
			ftype = decl.Type
			where = decl.Name.Name
		} else if lit := enclosingFuncLit(f, body); lit != nil {
			ftype = lit.Type
		}
		if ftype == nil {
			return
		}
		source := ctxSource(pass, ftype)
		if source == "" {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // inner literals are checked against their own params
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, name := range []string{"Background", "TODO"} {
				if calleeIs(pass.TypesInfo, call, "context", name) {
					pass.Reportf(call.Pos(),
						"context.%s() in %s, which already receives %s: thread the caller's "+
							"context so cancellation propagates", name, where, source)
				}
			}
			return true
		})
	})
}

// ctxSource names the parameter that makes a fresh context suspicious:
// a context.Context or an *http.Request (whose Context() is the one to
// thread). Empty when the function has neither.
func ctxSource(pass *Pass, ftype *ast.FuncType) string {
	if ftype.Params == nil {
		return ""
	}
	for _, field := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if typeIs(t, "context", "Context") {
			return "a context.Context parameter"
		}
		if typeIs(t, "net/http", "Request") {
			return "an *http.Request (use r.Context())"
		}
	}
	return ""
}

// enclosingFuncLit finds the literal whose body is exactly body.
func enclosingFuncLit(f *ast.File, body *ast.BlockStmt) *ast.FuncLit {
	var found *ast.FuncLit
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body == body {
			found = lit
			return false
		}
		return true
	})
	return found
}
