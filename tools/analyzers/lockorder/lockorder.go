// Package lockorder machine-checks lock acquisition order. It builds a
// package-wide lock-order graph: a node per mutex (a named struct's mutex
// field, or a package-level mutex variable) and an edge A → B whenever
// some function acquires B while visibly holding A — directly, or by
// calling (transitively, along the intra-package call graph) a function
// that acquires B. A cycle in that graph means two code paths acquire the
// same locks in opposite orders: the classic ABBA deadlock that the race
// detector only catches when the interleaving actually happens.
//
// The analysis is instance-insensitive (locks are identified by type and
// field name, not by object), flow-insensitive within branches, and
// treats deferred unlocks as holding the lock to the end of the function.
// RLock counts the same as Lock: a read/write pair ordered inconsistently
// still deadlocks against a writer. Recursive acquisition of the same
// lock identity is deliberately not reported — two instances of one type
// are indistinguishable to an instance-insensitive analysis.
//
// From the same per-function acquisition sets it checks the repo's
// `// guarded by mu` field convention (see guarded.go). A lock copied by
// value is go vet's copylocks check, not this package's.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/tools/analyzers/framework"
)

// Analyzer is the lockorder pass.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "builds a package-wide lock-acquisition graph (direct acquisitions plus acquisitions reached " +
		"through intra-package calls while a lock is held) and reports cycles: code paths that take " +
		"the same mutexes in opposite orders can deadlock; also checks `// guarded by mu` fields are " +
		"touched only by functions that acquire mu (or *Locked helpers)",
	Run: run,
}

// lockID identifies one mutex: a named type's mutex field (typ, field) or
// a package-level / local mutex variable (obj, "").
type lockID struct {
	obj   types.Object
	field string
}

func (l lockID) String() string {
	if l.field != "" {
		return l.obj.Name() + "." + l.field
	}
	return l.obj.Name()
}

// edge is one observed ordering: from is held when to is acquired.
type edge struct{ from, to lockID }

// callRecord is an intra-package call made while locks were held.
type callRecord struct {
	callee *types.Func
	held   []lockID
	pos    token.Pos
}

type funcFacts struct {
	acquires map[lockID]bool // locks the function acquires directly
	calls    []callRecord    // intra-package calls with the held set at the site
}

func run(pass *framework.Pass) (interface{}, error) {
	cg := framework.NewCallGraph(pass)

	facts := make(map[*types.Func]*funcFacts)
	edges := make(map[edge]token.Pos)
	addEdge := func(from, to lockID, pos token.Pos) {
		if from == to {
			return // instance-insensitive: same identity is not orderable
		}
		if _, ok := edges[edge{from, to}]; !ok {
			edges[edge{from, to}] = pos
		}
	}

	for fn, fd := range cg.Decls {
		if fd.Body == nil {
			continue
		}
		ff := &funcFacts{acquires: make(map[lockID]bool)}
		facts[fn] = ff
		scanBody(pass, cg, fd.Body, ff, addEdge)
	}

	// Close each function's acquisition set over intra-package calls, then
	// materialize call-site edges: held lock → every lock the callee can
	// acquire.
	trans := transitiveAcquires(facts, cg)
	for _, ff := range facts {
		for _, cr := range ff.calls {
			for acq := range trans[cr.callee] {
				for _, h := range cr.held {
					addEdge(h, acq, cr.pos)
				}
			}
		}
	}

	reportCycles(pass, edges)
	checkGuarded(pass, cg, facts)
	return nil, nil
}

// scanBody walks one function body in source order, tracking the
// approximate held-lock multiset and recording direct acquisition edges
// and intra-package calls made under a lock. Releases inside defer
// statements are ignored: a deferred unlock keeps the lock held for the
// rest of the function, which is exactly the window that matters for
// ordering.
func scanBody(pass *framework.Pass, cg *framework.CallGraph, body *ast.BlockStmt, ff *funcFacts, addEdge func(lockID, lockID, token.Pos)) {
	held := make(map[lockID]int)
	var order []lockID // held locks in acquisition order (may contain released entries; filtered via held)
	heldNow := func() []lockID {
		var out []lockID
		seen := make(map[lockID]bool)
		for _, l := range order {
			if held[l] > 0 && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		return out
	}

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.DeferStmt:
			walk(n.Call, true)
			return
		case *ast.CallExpr:
			for _, arg := range n.Args {
				walk(arg, inDefer)
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately invoked literal: treat its body as inline.
				walk(lit.Body, inDefer)
				return
			}
			if l, op, ok := lockOp(pass, n); ok {
				switch op {
				case opAcquire:
					for _, h := range heldNow() {
						addEdge(h, l, n.Pos())
					}
					ff.acquires[l] = true
					held[l]++
					order = append(order, l)
				case opRelease:
					if !inDefer && held[l] > 0 {
						held[l]--
					}
				}
				return
			}
			if callee := cg.CalleeOf(n); callee != nil {
				if h := heldNow(); len(h) > 0 {
					ff.calls = append(ff.calls, callRecord{callee: callee, held: h, pos: n.Pos()})
				} else {
					ff.calls = append(ff.calls, callRecord{callee: callee, pos: n.Pos()})
				}
			}
			walk(n.Fun, inDefer)
			return
		case *ast.FuncLit:
			// A non-invoked literal runs at an unknown time; scan it as an
			// independent body so its internal ordering still registers,
			// but do not leak the outer held set into it.
			scanBody(pass, cg, n.Body, ff, addEdge)
			return
		}
		// Generic traversal in source order.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, inDefer)
			return false
		})
	}
	walk(body, false)
}

type lockOpKind int

const (
	opAcquire lockOpKind = iota
	opRelease
)

// lockOp classifies call as a mutex acquire/release and resolves the lock
// identity: `x.mu.Lock()` → (type of x, "mu"), `pkgMu.Lock()` → (pkgMu, "").
func lockOp(pass *framework.Pass, call *ast.CallExpr) (lockID, lockOpKind, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockID{}, 0, false
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return lockID{}, 0, false
	}
	if !isMutexType(pass.TypesInfo.Types[sel.X].Type) {
		return lockID{}, 0, false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		if tn := namedTypeOf(pass, x.X); tn != nil {
			return lockID{obj: tn, field: x.Sel.Name}, op, true
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok {
			return lockID{obj: v}, op, true
		}
	}
	return lockID{}, 0, false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (through one
// pointer level).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// namedTypeOf resolves expr to the named type it denotes (through one
// pointer level), or nil.
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

// transitiveAcquires closes each function's direct acquisition set over
// the intra-package call graph by fixpoint iteration.
func transitiveAcquires(facts map[*types.Func]*funcFacts, cg *framework.CallGraph) map[*types.Func]map[lockID]bool {
	trans := make(map[*types.Func]map[lockID]bool, len(facts))
	for fn, ff := range facts {
		set := make(map[lockID]bool, len(ff.acquires))
		for l := range ff.acquires {
			set[l] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, ff := range facts {
			set := trans[fn]
			for _, cr := range ff.calls {
				for l := range trans[cr.callee] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// reportCycles finds strongly connected components of the order graph and
// reports every edge participating in one.
func reportCycles(pass *framework.Pass, edges map[edge]token.Pos) {
	adj := make(map[lockID][]lockID)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	scc := stronglyConnected(adj)
	comp := make(map[lockID]int)
	for i, members := range scc {
		for _, m := range members {
			comp[m] = i
		}
	}
	type finding struct {
		pos   token.Pos
		from  lockID
		to    lockID
		cycle string
	}
	var findings []finding
	for e, pos := range edges {
		ci, ok1 := comp[e.from]
		cj, ok2 := comp[e.to]
		if !ok1 || !ok2 || ci != cj || len(scc[ci]) < 2 {
			continue
		}
		names := make([]string, 0, len(scc[ci]))
		for _, m := range scc[ci] {
			names = append(names, m.String())
		}
		sort.Strings(names)
		findings = append(findings, finding{pos: pos, from: e.from, to: e.to, cycle: join(names)})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		pass.Reportf(f.pos, "lock-order cycle: %s is acquired while %s is held here, but another path orders them oppositely (cycle: %s); pick one global order",
			f.to, f.from, f.cycle)
	}
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " <-> "
		}
		out += n
	}
	return out
}

// stronglyConnected returns Tarjan's SCCs of the lock graph.
func stronglyConnected(adj map[lockID][]lockID) [][]lockID {
	// Deterministic node order keeps diagnostics stable across runs.
	var nodes []lockID
	seen := make(map[lockID]bool)
	add := func(l lockID) {
		if !seen[l] {
			seen[l] = true
			nodes = append(nodes, l)
		}
	}
	for from, tos := range adj {
		add(from)
		for _, to := range tos {
			add(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	index := make(map[lockID]int)
	low := make(map[lockID]int)
	onStack := make(map[lockID]bool)
	var stack []lockID
	var sccs [][]lockID
	next := 0

	var strong func(v lockID)
	strong = func(v lockID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := append([]lockID(nil), adj[v]...)
		sort.Slice(tos, func(i, j int) bool { return tos[i].String() < tos[j].String() })
		for _, w := range tos {
			if _, visited := index[w]; !visited {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []lockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strong(v)
		}
	}
	return sccs
}
