// Package hotalloc gates allocation-prone constructs out of the warm
// discovery path. Functions carrying a `//repolint:hotpath` doc directive
// — and everything they reach along the intra-package call graph — form
// the hot set; a `//repolint:coldpath` directive on a callee (an error
// builder, a cache-miss parser) prunes that branch from the closure.
// Within the hot set the analyzer reports:
//
//   - any call into package fmt (Sprintf/Errorf format machinery
//     allocates and reflects unconditionally),
//   - append inside a loop to a slice created with zero capacity
//     (`make([]T, 0)` or an empty literal) — growth reallocates on the
//     first elements every single call; either presize or start from a
//     nil slice that only materializes on rare branches,
//   - map composite literals and unsized make(map...) — maps cannot be
//     stack-allocated,
//   - interface boxing of non-pointer values (basic, struct, array,
//     slice, or map values passed to interface parameters) — the
//     conversion copies the value to the heap,
//   - string <-> []byte conversions, which copy,
//   - capturing func literals — a closure over local variables forces
//     them (and the closure) to the heap.
//
// The dynamic counterpart is `make escapecheck` (cmd/escapecheck), which
// compiles the annotated packages with -gcflags=-m and diffs the heap
// escapes inside hotpath functions against ESCAPES_discovery.txt, and
// the allocation budgets of TestDiscoveryAllocBudgets (root package).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/analyzers/framework"
)

// Analyzer is the hotalloc pass.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "forbids allocation-prone constructs (fmt calls, zero-capacity append growth in loops, map literals, " +
		"interface boxing, string/[]byte copies, capturing closures) in //repolint:hotpath functions and their " +
		"intra-package callees, up to //repolint:coldpath boundaries",
	Run: run,
}

// Directives recognized by the analyzer.
const (
	HotDirective  = "hotpath"
	ColdDirective = "coldpath"
)

func run(pass *framework.Pass) (interface{}, error) {
	cg := framework.NewCallGraph(pass)

	var roots []*types.Func
	for fn, fd := range cg.Decls {
		if pass.FuncHasDirective(fd, HotDirective) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	hot := cg.Reachable(roots, func(fn *types.Func) bool {
		fd := cg.Decls[fn]
		return fd != nil && pass.FuncHasDirective(fd, ColdDirective)
	})

	// Deterministic order for stable diagnostics.
	var fns []*types.Func
	for fn := range hot {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		fd := cg.Decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		checkHotFunc(pass, fd)
	}
	return nil, nil
}

func checkHotFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	zeroCap := zeroCapSlices(pass, fd)
	var loopDepth int

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				walk(c)
				return false
			})
			loopDepth--
			return
		case *ast.FuncLit:
			if captured := capturedVars(pass, fd, n); len(captured) > 0 {
				pass.Reportf(n.Pos(),
					"hot path: closure captures %s, forcing the capture set to the heap; "+
						"hoist to a named function or pass the values as arguments",
					strings.Join(captured, ", "))
			}
			// Still scan the body: the literal runs on the hot path too.
		case *ast.CallExpr:
			checkCall(pass, n, zeroCap, loopDepth > 0)
		case *ast.CompositeLit:
			if t := pass.TypesInfo.Types[n].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "hot path: map literal allocates; maps cannot be stack-allocated — hoist it out of the hot path or reuse a cached map")
				}
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c)
			return false
		})
	}
	walk(fd.Body)
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, zeroCap map[types.Object]bool, inLoop bool) {
	// fmt.* — always allocates.
	if _, name, ok := pass.SelectorOnPackage(call.Fun, "fmt"); ok {
		pass.Reportf(call.Pos(),
			"hot path: fmt.%s allocates (format parsing + reflection); build the value without fmt or move this to a //repolint:%s helper",
			name, ColdDirective)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case id.Name == "append" && inLoop && len(call.Args) > 0:
			if arg, ok := call.Args[0].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[arg]; obj != nil && zeroCap[obj] {
					pass.Reportf(call.Pos(),
						"hot path: append in a loop grows %s from zero capacity, reallocating on the first elements every call; presize with make([]T, 0, n) or keep the slice nil until needed",
						arg.Name)
				}
			}
			return
		case id.Name == "make" && len(call.Args) == 1:
			if t := pass.TypesInfo.Types[call].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "hot path: unsized make(map) allocates and rehashes as it grows; size it or hoist it off the hot path")
				}
			}
			return
		}
	}
	// Conversions: string <-> []byte.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.TypesInfo.Types[call.Args[0]].Type
		if isByteConv(to, from) {
			pass.Reportf(call.Pos(), "hot path: string/[]byte conversion copies the bytes; keep one representation (e.g. hash the string directly)")
		}
		return
	}
	checkBoxing(pass, call)
}

// checkBoxing reports arguments whose value kinds heap-box when passed to
// interface parameters.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil {
			continue
		}
		if kind := boxesOnConversion(at); kind != "" {
			pass.Reportf(arg.Pos(),
				"hot path: passing a %s to an interface parameter boxes it on the heap; pass a pointer or keep the call monomorphic",
				kind)
		}
	}
}

// boxesOnConversion names the allocating value kind, or "" when the
// conversion to interface is allocation-free (pointers, interfaces,
// untyped nil, channels, funcs with no capture already heap-bound, and
// zero-size values, which box to the runtime's shared zero base).
func boxesOnConversion(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return ""
		}
		return u.Name() + " value"
	case *types.Struct:
		if u.NumFields() == 0 {
			return ""
		}
		return "struct value"
	case *types.Array:
		if u.Len() == 0 {
			return ""
		}
		return "array value"
	case *types.Slice:
		return "slice header"
	case *types.Map:
		return "map header"
	}
	return ""
}

func isByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// zeroCapSlices collects the objects of slices defined with zero capacity
// (`x := make([]T, 0)` or `x := []T{}`) in fd's body. Nil `var x []T`
// declarations are deliberately excluded: a nil slice allocates nothing
// until a rare branch actually appends.
func zeroCapSlices(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				continue
			}
			if isZeroCapSliceExpr(pass, as.Rhs[i]) {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isZeroCapSliceExpr(pass *framework.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false // make with an explicit capacity is the fix, not the bug
		}
		t := pass.TypesInfo.Types[e].Type
		if t == nil {
			return false
		}
		if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
			return false
		}
		tv := pass.TypesInfo.Types[e.Args[1]]
		return tv.Value != nil && tv.Value.String() == "0"
	case *ast.CompositeLit:
		t := pass.TypesInfo.Types[e].Type
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	}
	return false
}

// capturedVars lists (deduplicated, in source order) the local variables
// of fd that lit captures by reference: identifiers inside lit resolving
// to *types.Var objects declared inside fd but outside lit, excluding
// struct fields and package-level variables (neither forces a closure
// allocation — fields ride the receiver pointer, globals are addressed
// directly).
func capturedVars(pass *framework.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Pkg() != pass.Pkg {
			return true // package-level or foreign
		}
		// Declared inside fd but outside lit?
		if v.Pos() < fd.Pos() || v.Pos() > fd.End() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own params/locals
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
