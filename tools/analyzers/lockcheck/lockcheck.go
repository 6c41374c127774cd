// Package lockcheck enforces the repository's `// guarded by mu` comment
// convention for mutex-protected struct fields, plus two lock-hygiene
// checks.
//
// A struct field annotated
//
//	type Table struct {
//		mu   sync.RWMutex
//		rows map[string]Row // guarded by mu
//	}
//
// (or an embedded struct so annotated, which guards every field it
// promotes) may only be read or written inside a function that visibly acquires the
// named mutex on a value of that struct type (a `x.mu.Lock()` or
// `x.mu.RLock()` call anywhere in the function), or inside a function
// whose name ends in "Locked" — the repo's convention for helpers whose
// callers already hold the lock. The check is deliberately flow-
// insensitive: it catches the real regression class (a new method
// touching shared state with no locking at all) without modelling
// lock/unlock ordering, which the race-detector CI covers dynamically.
//
// The two hygiene checks flag copied locks, which silently fork the
// critical section:
//
//   - a method with a value receiver whose type (transitively) contains a
//     sync.Mutex or sync.RWMutex;
//   - a function parameter or result passing such a type by value.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/tools/analyzers/framework"
)

// Analyzer is the lockcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc: "checks `// guarded by mu` field annotations: guarded fields may only be touched by functions " +
		"that acquire the named mutex (or *Locked helpers); also flags locks copied via value " +
		"receivers, parameters, or results",
	Run: run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// guardKey identifies one guarded field of one named struct type.
type guardKey struct {
	typ   *types.TypeName
	field string
}

// lockKey identifies one mutex field of one named struct type.
type lockKey struct {
	typ *types.TypeName
	mu  string
}

func run(pass *framework.Pass) (interface{}, error) {
	guards := collectGuards(pass)
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCopiedLocks(pass, fd)
			if fd.Body == nil || len(guards) == 0 {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-lock convention
			}
			held := heldLocks(pass, fd.Body)
			checkGuardedAccesses(pass, fd, guards, held)
		}
	}
	return nil, nil
}

// collectGuards scans struct type declarations for `guarded by <mu>`
// field comments, keyed by the defined type and field name.
func collectGuards(pass *framework.Pass) map[guardKey]string {
	guards := make(map[guardKey]string)
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
					guards[guardKey{tn, name.Name}] = mu
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
func guardEmbedded(pass *framework.Pass, guards map[guardKey]string, outer *types.TypeName, typ ast.Expr, mu string) {
	inner := namedTypeOf(pass, typ)
	if inner == nil {
		return
	}
	guards[guardKey{outer, inner.Name()}] = mu
	if st, ok := inner.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			guards[guardKey{outer, st.Field(i).Name()}] = mu
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

// heldLocks collects the (type, mutex) pairs for which the function body
// contains an acquire call `expr.<mu>.Lock()` or `expr.<mu>.RLock()`.
func heldLocks(pass *framework.Pass, body *ast.BlockStmt) map[lockKey]bool {
	held := make(map[lockKey]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if tn := namedTypeOf(pass, muSel.X); tn != nil {
			held[lockKey{tn, muSel.Sel.Name}] = true
		}
		return true
	})
	return held
}

// checkGuardedAccesses reports guarded-field selections in fd that are
// not covered by an acquire of the guarding mutex.
func checkGuardedAccesses(pass *framework.Pass, fd *ast.FuncDecl, guards map[guardKey]string, held map[lockKey]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		tn := namedTypeOf(pass, sel.X)
		if tn == nil {
			return true
		}
		mu, guarded := guards[guardKey{tn, sel.Sel.Name}]
		if !guarded {
			return true
		}
		if !held[lockKey{tn, mu}] {
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but %s never acquires it (call %s.Lock/RLock or name the helper ...Locked)",
				tn.Name(), sel.Sel.Name, mu, fd.Name.Name, mu)
		}
		return true
	})
}

// namedTypeOf resolves expr to the named type it denotes (through one
// level of pointer), or nil.
func namedTypeOf(pass *framework.Pass, expr ast.Expr) *types.TypeName {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// checkCopiedLocks flags value receivers, parameters, and results whose
// type contains a mutex by value.
func checkCopiedLocks(pass *framework.Pass, fd *ast.FuncDecl) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	report := func(pos token.Pos, what string, t types.Type) {
		pass.Reportf(pos, "%s %s copies a lock: %s contains a sync mutex; pass a pointer", fd.Name.Name, what, t)
	}
	if recv := sig.Recv(); recv != nil && containsLock(recv.Type(), nil) {
		report(fd.Recv.Pos(), "value receiver", recv.Type())
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if v := params.At(i); containsLock(v.Type(), nil) {
			report(v.Pos(), "parameter", v.Type())
		}
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if v := results.At(i); containsLock(v.Type(), nil) {
			pos := v.Pos()
			if !pos.IsValid() {
				pos = fd.Pos()
			}
			report(pos, "result", v.Type())
		}
	}
}

// containsLock reports whether t holds a sync.Mutex or sync.RWMutex by
// value, directly or through nested structs and arrays.
func containsLock(t types.Type, seen map[*types.Named]bool) bool {
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		if seen[t] {
			return false
		}
		if seen == nil {
			seen = make(map[*types.Named]bool)
		}
		seen[t] = true
		return containsLock(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLock(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(t.Elem(), seen)
	}
	return false
}
