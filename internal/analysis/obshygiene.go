package analysis

import (
	"go/ast"
	"strings"
)

// internalPrefix scopes the hygiene rule to the library layers. The
// cmd/ tools legitimately print to stdout; internal packages must speak
// slog (structured, leveled, routed by the server) or render into a
// caller-supplied writer.
const internalPrefix = "lard/internal/"

// ObsHygieneAnalyzer keeps internal packages off the process streams: no
// fmt.Print*/log.Print* (or any log.* output call), and no fmt.Fprint*
// aimed at os.Stdout or os.Stderr. Logging goes through slog; metrics
// render into the writer the caller chose.
var ObsHygieneAnalyzer = &Analyzer{
	Name: "obshygiene",
	Run:  runObsHygiene,
}

func runObsHygiene(pass *Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), internalPrefix) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkNoPrinting(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkNoPrinting flags direct terminal output from internal packages.
func checkNoPrinting(pass *Pass, call *ast.CallExpr) {
	callee := calleeOf(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "fmt":
		name := callee.Name()
		if name == "Print" || name == "Printf" || name == "Println" {
			pass.Reportf(call.Pos(),
				"%s.%s in an internal package: log through slog (leveled, structured, routed by "+
					"the server) instead of writing to stdout", "fmt", name)
			return
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			if std, which := isStdStream(pass, call.Args[0]); std {
				pass.Reportf(call.Pos(),
					"fmt.%s to os.%s in an internal package: log through slog instead of writing "+
						"to the process streams", name, which)
			}
		}
	case "log":
		pass.Reportf(call.Pos(),
			"log.%s in an internal package: the stdlib logger bypasses slog's level and handler "+
				"routing — use the slog.Logger the caller wired in", callee.Name())
	}
}

// isStdStream reports whether e denotes os.Stdout or os.Stderr.
func isStdStream(pass *Pass, e ast.Expr) (bool, string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false, ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false, ""
	}
	if name := obj.Name(); name == "Stdout" || name == "Stderr" {
		return true, name
	}
	return false, ""
}
