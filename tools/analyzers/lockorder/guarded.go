package lockorder

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/tools/analyzers/framework"
)

// The `// guarded by mu` convention. A struct field annotated
//
//	type Table struct {
//		mu   sync.RWMutex
//		rows map[string]Row // guarded by mu
//	}
//
// (or an embedded struct so annotated, which guards every field it
// promotes) may only be read or written inside a function that acquires
// the named mutex on a value of that struct type — a `x.mu.Lock()` or
// `x.mu.RLock()` anywhere in its body, function literals included, which
// is the acquisition set the order graph is built from — or inside a
// function whose name ends in "Locked", the repo's convention for helpers
// whose callers already hold the lock. The check is flow-insensitive: it
// catches a new method touching shared state with no locking at all, and
// leaves unlock placement to the race detector.

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// checkGuarded reports every guarded-field selection in a function that
// never acquires the guarding mutex.
func checkGuarded(pass *framework.Pass, cg *framework.CallGraph, facts map[*types.Func]*funcFacts) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	for fn, fd := range cg.Decls {
		if fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		acquires := facts[fn].acquires
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal {
				return true
			}
			tn := namedTypeOf(pass, sel.X)
			if tn == nil {
				return true
			}
			mu, guarded := guards[lockID{tn, sel.Sel.Name}]
			if guarded && !acquires[lockID{tn, mu}] {
				pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but %s never acquires it (call %s.Lock/RLock or name the helper ...Locked)",
					tn.Name(), sel.Sel.Name, mu, fd.Name.Name, mu)
			}
			return true
		})
	}
}

// collectGuards maps each guarded field, as a lockID of its struct type
// and field name, to the name of the mutex field that guards it.
func collectGuards(pass *framework.Pass) map[lockID]string {
	guards := make(map[lockID]string)
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardComment(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					guards[lockID{tn, name.Name}] = mu
				}
				if len(field.Names) == 0 {
					guardEmbedded(pass, guards, tn, field.Type, mu)
				}
			}
			return true
		})
	}
	return guards
}

// guardEmbedded records a guard on an embedded struct: it covers the
// embedded value itself and every field it promotes, which is how the
// guarded state is spelled at its use sites (`s.rows`, not `s.state.rows`).
func guardEmbedded(pass *framework.Pass, guards map[lockID]string, outer *types.TypeName, typ ast.Expr, mu string) {
	inner := namedTypeOf(pass, typ)
	if inner == nil {
		return
	}
	guards[lockID{outer, inner.Name()}] = mu
	if st, ok := inner.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			guards[lockID{outer, st.Field(i).Name()}] = mu
		}
	}
}

// guardComment extracts the mutex name from a field's doc or line
// comment, or "" if the field carries no guard annotation.
func guardComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}
