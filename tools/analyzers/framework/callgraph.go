package framework

import (
	"go/ast"
	"go/types"
)

// CallGraph resolves the analyzed package's intra-package calls: one node
// per package-level function or method declared in it, and a call resolves
// when its callee is statically known (direct calls and method calls on
// typed receivers — not interface dispatch through values whose dynamic
// type is unknown, and not calls through stored function values). It is
// deliberately an under-approximation: analyzers use it to propagate
// properties along calls they can prove, and fall back to per-function
// reasoning elsewhere.
//
// The graph covers non-test files only, matching the analyzers' scope.
type CallGraph struct {
	pass *Pass
	// Decls maps each declared function to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
}

// NewCallGraph builds the call graph for the pass's package.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:  pass,
		Decls: make(map[*types.Func]*ast.FuncDecl),
	}
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.Decls[fn] = fd
			}
		}
	}
	return g
}

// CalleeOf statically resolves call's target to a function declared in the
// analyzed package, or nil (cross-package call, interface dispatch on an
// unknown dynamic type, function value, builtin, conversion).
func (g *CallGraph) CalleeOf(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = g.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = g.pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != g.pass.Pkg {
		return nil
	}
	if _, declared := g.Decls[fn]; !declared {
		return nil // e.g. interface method of a locally defined interface
	}
	return fn
}
