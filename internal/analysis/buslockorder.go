package analysis

import (
	"go/ast"
)

const (
	enginePkg = "lard/internal/engine"
	obsPkg    = "lard/internal/obs"
)

// BusLockOrderAnalyzer enforces the engine's concurrency contract:
//
//   - A bare (blocking) channel send must not happen while a mutex is
//     held: a slow receiver would stall every caller of that lock. The
//     bus's select/default publish exists precisely to keep sends
//     non-blocking under bus.mu.
//   - A span obtained from Tracer.StartTrace or Span.Child is open and
//     must be ended on every return path; leaking one corrupts the
//     trace tree GET /v1/runs/{id}/trace serves. Spans that escape the
//     function (stored in a field, passed on, returned) are managed
//     elsewhere and exempt, as is Span.ChildAt, which returns spans
//     already ended.
var BusLockOrderAnalyzer = &Analyzer{
	Name: "buslockorder",
	Run:  runBusLockOrder,
}

func runBusLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		if pass.Pkg.Path() == enginePkg {
			checkSendUnderLock(pass, f)
		}
		checkSpanEnds(pass, f)
	}
	return nil
}

// checkSendUnderLock walks each function body in source order tracking a
// mutex-held counter (Lock increments, Unlock decrements; *Locked
// functions start held by convention) and flags bare channel sends while
// the counter is positive. Sends that are the comm clause of a select
// with a default case are non-blocking and exempt.
func checkSendUnderLock(pass *Pass, f *ast.File) {
	funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		held := 0
		if decl != nil && isLockedName(decl.Name.Name) {
			held = 1 // holds e.mu by naming convention
		}
		nonBlocking := map[*ast.SendStmt]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				markNonBlockingSends(sel, nonBlocking)
			}
			return true
		})
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false // its body is visited by funcBodies separately
			case *ast.CallExpr:
				switch mutexCallKind(pass, s) {
				case "Lock":
					held++
				case "Unlock":
					if held > 0 {
						held--
					}
				}
			case *ast.DeferStmt:
				// A deferred Unlock releases at return, not here: the
				// lock stays held for the rest of the body.
				if call := s.Call; mutexCallKind(pass, call) == "Unlock" {
					return false
				}
			case *ast.SendStmt:
				if held > 0 && !nonBlocking[s] {
					pass.Reportf(s.Pos(),
						"blocking channel send while a mutex is held: a slow receiver stalls every "+
							"caller of this lock — use a select with default (drop) or send after unlock")
				}
			}
			return true
		})
	})
}

// markNonBlockingSends records sends that are comm statements of a
// select containing a default clause — those never block.
func markNonBlockingSends(sel *ast.SelectStmt, set map[*ast.SendStmt]bool) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		return
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			set[send] = true
		}
	}
}

// mutexCallKind classifies a call as a mutex Lock/Unlock acquisition
// ("Lock", "Unlock") or neither (""). RLock/RUnlock count: a read lock
// still blocks writers waiting behind a stalled send.
func mutexCallKind(pass *Pass, call *ast.CallExpr) string {
	callee := calleeOf(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return ""
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return "Lock"
	case "Unlock", "RUnlock":
		return "Unlock"
	}
	return ""
}

// isLockedName reports whether name follows the engine's convention of
// suffixing functions that require e.mu held with "Locked".
func isLockedName(name string) bool {
	return len(name) > len("Locked") && name[len(name)-len("Locked"):] == "Locked"
}

// checkSpanEnds enforces span End coverage per function body.
func checkSpanEnds(pass *Pass, f *ast.File) {
	funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		parents := parentMap(body)
		for _, sv := range spanStarts(pass, body) {
			if spanEscapes(pass, body, sv) {
				continue
			}
			checkOneSpan(pass, body, parents, sv)
		}
	})
}

// spanVar is one locally started span: the variable and where it began.
type spanVar struct {
	ident *ast.Ident // LHS of the starting assignment
	stmt  *ast.AssignStmt
}

// spanStarts finds `x := <span-start>` assignments whose RHS is
// Tracer.StartTrace or Span.Child (ChildAt returns ended spans).
func spanStarts(pass *Pass, body *ast.BlockStmt) []spanVar {
	var out []spanVar
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // inner literals are visited separately
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if methodOn(pass.TypesInfo, call, obsPkg, "Tracer", "StartTrace") ||
			methodOn(pass.TypesInfo, call, obsPkg, "Span", "Child") {
			out = append(out, spanVar{ident: id, stmt: as})
		}
		return true
	})
	return out
}

// spanEscapes reports whether the span value leaves the function: stored
// into another variable or field, passed as a call argument, returned,
// embedded in a literal, or sent on a channel. Receiver position
// (sv.End(), sv.Child(...)) is use, not escape.
func spanEscapes(pass *Pass, body *ast.BlockStmt, sv spanVar) bool {
	obj := pass.TypesInfo.Defs[sv.ident]
	if obj == nil {
		obj = pass.TypesInfo.Uses[sv.ident]
	}
	if obj == nil {
		return true // cannot resolve: stay quiet rather than guess
	}
	escaped := false
	parents := parentMap(body)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == sv.ident || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.SelectorExpr:
			// Receiver of a method call (sv.End()) is fine; anything
			// else selecting *from* the span is still local use.
			return true
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == ast.Expr(id) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == ast.Expr(id) {
					escaped = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			escaped = true
		}
		return true
	})
	return escaped
}

// checkOneSpan verifies sv is ended on every return path of body. A
// deferred End covers everything; otherwise each return after the start
// must have an End call earlier in its enclosing block chain.
func checkOneSpan(pass *Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, sv spanVar) {
	obj := pass.TypesInfo.Defs[sv.ident]
	endCalls := map[ast.Node]bool{} // statements containing sv.End()
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if _, ok := parents[call].(*ast.DeferStmt); ok {
			deferred = true
			return true
		}
		// Record the top-level statement (direct child of a block)
		// containing this End call, for path checks.
		for p := ast.Node(call); p != nil; p = parents[p] {
			if parent, ok := parents[p].(*ast.BlockStmt); ok && parent != nil {
				endCalls[p] = true
				break
			}
		}
		return true
	})
	if deferred {
		return
	}
	if len(endCalls) == 0 {
		pass.Reportf(sv.stmt.Pos(),
			"span %s is never ended: every span from StartTrace/Child must be closed "+
				"(defer %s.End()) or the trace tree leaks an open phase", sv.ident.Name, sv.ident.Name)
		return
	}
	// For every return after the start, some End must appear earlier in
	// its enclosing block chain.
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() < sv.stmt.Pos() {
			return true
		}
		if !endOnPath(parents, body, ret, endCalls) {
			pass.Reportf(ret.Pos(),
				"span %s (started at line %d) is not ended on this return path: call %s.End() "+
					"before returning or defer it at the start",
				sv.ident.Name, pass.Fset.Position(sv.stmt.Pos()).Line, sv.ident.Name)
		}
		return true
	})
}

// endOnPath reports whether an End-bearing statement precedes ret in
// some block on the path from ret up to the function body.
func endOnPath(parents map[ast.Node]ast.Node, body *ast.BlockStmt, ret *ast.ReturnStmt, endCalls map[ast.Node]bool) bool {
	node := ast.Node(ret)
	for node != nil && node != ast.Node(body) {
		parent := parents[node]
		if blk, ok := parent.(*ast.BlockStmt); ok {
			for _, s := range blk.List {
				if s.Pos() >= node.Pos() {
					break
				}
				if containsAny(s, endCalls) {
					return true
				}
			}
		}
		if parent == nil {
			break
		}
		node = parent
	}
	return false
}

// containsAny reports whether any node of set lies inside root.
func containsAny(root ast.Node, set map[ast.Node]bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if set[n] {
			found = true
		}
		return !found
	})
	return found
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
