package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Key-bearing structs: every byte of their JSON encoding feeds a
// content address (run keys, campaign ids), so their field set is part
// of the store's persistent format. Adding a field without an explicit
// json tag silently changes (or, for side channels, should NOT change)
// every key — the RT<1 "silently simulating the wrong config" bug class
// from PR 2 started exactly this way.
var keyStructs = map[string][]string{
	"lard":                      {"Scheme", "Options", "CampaignSpec"},
	"lard/internal/sim":         {"Options"},
	"lard/internal/resultstore": {"Spec"},
}

// Canonicalization functions: the only places that turn a request into a
// content address. A json:"-" field is execution plumbing by contract,
// so reading one here means an observer is leaking into run identity.
// Writes are fine — SpecFor exists to strip these fields.
var canonFuncs = map[string]map[string]bool{
	"lard": {
		"KeyFor":         true,
		"CampaignKeyFor": true,
	},
	"lard/internal/resultstore": {
		"SpecFor":     true,
		"Spec.Key":    true,
		"encodeEntry": true,
	},
}

// KeyNeutralAnalyzer enforces key neutrality: explicit json tags on
// key-bearing structs, and no reads of json:"-" side channels inside
// key/spec canonicalization functions.
var KeyNeutralAnalyzer = &Analyzer{
	Name: "keyneutral",
	Run:  runKeyNeutral,
}

func runKeyNeutral(pass *Pass) error {
	wanted := map[string]bool{}
	for _, name := range keyStructs[pass.Pkg.Path()] {
		wanted[name] = true
	}
	canon := canonFuncs[pass.Pkg.Path()]

	for _, f := range pass.Files {
		if len(wanted) > 0 {
			checkKeyStructTags(pass, f, wanted)
		}
		if len(canon) > 0 {
			checkCanonReads(pass, f, canon)
		}
	}
	return nil
}

// checkKeyStructTags flags fields of key-bearing structs that lack an
// explicit json tag. The tag is the declaration of intent: either the
// field is identity (named key, frozen forever) or plumbing (`json:"-"`,
// stripped from every address). An untagged field is neither, and its
// default encoding silently becomes part of the persistent key format.
func checkKeyStructTags(pass *Pass, f *ast.File, wanted map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || !wanted[ts.Name.Name] {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if _, present := jsonTag(structTagOf(field)); present {
				continue
			}
			names := strings.Join(fieldNames(field), ", ")
			pass.Reportf(field.Pos(),
				"field %s of key-bearing struct %s.%s needs an explicit json tag: "+
					"name it (frozen into every content address) or exclude it with json:\"-\"",
				names, pass.Pkg.Path(), ts.Name.Name)
		}
		return true
	})
}

// checkCanonReads flags reads of json:"-" fields of key-bearing structs
// inside canonicalization functions. Assignments TO such fields are the
// stripping step and stay legal.
func checkCanonReads(pass *Pass, f *ast.File, canon map[string]bool) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !canon[canonFuncName(pass, fn)] {
			continue
		}
		// Selector expressions appearing as assignment LHS are writes;
		// everything else is a read.
		writes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || writes[sel] {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			recvPath, recvName, ok := namedType(selection.Recv())
			if !ok || !isKeyStruct(recvPath, recvName) {
				return true
			}
			tag, present := jsonTagOfField(selection.Recv(), sel.Sel.Name)
			if present && tag == "-" {
				pass.Reportf(sel.Pos(),
					"json:\"-\" field %s.%s read inside canonicalization function %s: "+
						"side channels are execution plumbing and must never reach a content address",
					recvName, sel.Sel.Name, canonFuncName(pass, fn))
			}
			return true
		})
	}
}

// canonFuncName renders fn the way canonFuncs keys it: "Name" for
// functions, "Recv.Name" for methods.
func canonFuncName(pass *Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	if _, name, ok := recvTypeOf(pass.TypesInfo, fn); ok {
		return name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// isKeyStruct reports whether pkgPath.name is in the key-struct table.
func isKeyStruct(pkgPath, name string) bool {
	for _, n := range keyStructs[pkgPath] {
		if n == name {
			return true
		}
	}
	return false
}
