// Package bannedcall flags uses of names — the standard library's, and one
// type of the repository's own — that the repository has a sanctioned
// replacement for. One table holds the rules; each row
// names the packages it watches, the members it bans (or the only ones it
// allows), the packages it leaves alone, and the message that says what to
// use instead. A row's tag is the name the rule had when it was an
// analyzer of its own, and still closes its diagnostics.
//
//   - wallclock: the reproduction's determinism rests on the
//     internal/simclock.Clock abstraction — the 25 s NodeStatus poller,
//     time-of-day service windows, token expiry and audit timestamps all
//     take an injected Clock so a simclock.Manual can drive them. A single
//     stray time.Now() reintroduces nondeterminism that only shows up as
//     flaky experiments, so only package simclock itself may touch package
//     time's clock functions. Pure constructors and arithmetic (time.Date,
//     time.Duration, t.Add, time.Parse, ...) remain allowed.
//   - norand: every stochastic component — the MTC workload generator's
//     Poisson arrivals, host-load jitter in cmd/nodestatusd — must draw from
//     a *rand.Rand seeded from configuration, so a run is reproducible from
//     its recorded seed. The global source is seeded behind the program's
//     back and shared across goroutines; rand.Seed is additionally
//     deprecated. Constructing sources and naming math/rand types is fine.
//   - structlog: libraries log through an injected *slog.Logger (see
//     internal/obs) so records carry component attributes and honour
//     -log-level/-log-format, or write to an explicitly injected io.Writer
//     (fmt.Fprintf and friends stay legal — the caller chose the
//     destination). Main packages own the process and are exempt.
//   - clienttimeout: a zero-Timeout http.Client never gives up on an
//     unresponsive peer — a nil-client NodeStatus invoker that fell back to
//     http.DefaultClient let one hung host pin a sweep slot forever, and a
//     notification subscriber that never answered, posted to through the
//     same fallback, held every registry writer. Every constructed client
//     states its deadline budget; even `Timeout: 0` is accepted, because
//     writing it proves the unbounded client was chosen. http.DefaultClient
//     and the package helpers that use it (Get, Head, Post, PostForm) are
//     banned outright.
//   - storewrite: the registry's tables change in one sequence — compute,
//     log, apply — inside lcm.Manager, and log replay and the follower apply
//     the same records through the same store call. A Store.Put from any
//     other package is a write no log holds: served by the leader, absent
//     from every follower and gone after a restart. The packages that may
//     call the mutating methods are the store, the manager, the log, and the
//     taxonomy seed that the first-boot checkpoint covers.
//   - pinned: the nested benchmark module under bench/ is frozen, and
//     compiles against names the server no longer calls. Each package keeps
//     those names in one file, pinned.go, as adapters over what replaced
//     them; a reference from another package's non-test code is a
//     production caller of a name kept only for the benchmark. The
//     defining package may use its own adapters.
//   - ctxprop: a request's context carries its deadline, cancellation and
//     trace, and context.Background or context.TODO in a library package
//     detaches a call from all three. Main packages own the process and
//     are exempt; so is a function whose doc comment carries
//     `//repolint:ctxprop-allow <why>`, a context-free wrapper kept for
//     callers that have no context.
//
// A rule flags the reference, not only the call: passing time.Now or
// fmt.Println as a value leaks it just as surely. Test files are exempt
// from every rule: tests may use the wall clock, the global rand, prints
// and throwaway clients freely.
package bannedcall

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"path/filepath"

	"repro/tools/analyzers/framework"
)

// Analyzer is the bannedcall pass.
var Analyzer = &framework.Analyzer{
	Name: "bannedcall",
	Doc: "flags standard-library uses with a sanctioned replacement: wall-clock reads outside internal/simclock, " +
		"the global math/rand source, fmt.Print*/log.* output in library packages, " +
		"http.Client literals without an explicit Timeout and http.DefaultClient, " +
		"store.Store writes that bypass the log, names kept only for the frozen benchmark (pinned.go), " +
		"and context.Background/TODO in library packages",
	Run: run,
}

// rule is one row of the table.
type rule struct {
	// tag closes the rule's diagnostics.
	tag string
	// pkgs are the import paths whose members the rule watches.
	pkgs []string
	// recv, when set, makes the watched members the methods of this named
	// type of pkgs, not their package-level names.
	recv string
	// names maps a watched member to the replacement its diagnostic names;
	// "" means the rule's fix. With allowOnly set the sense flips: names
	// are the only functions and variables of pkgs that may be used.
	names     map[string]string
	allowOnly bool
	// literalNeeds, when set, changes what is banned about a member: not
	// naming it, but writing a composite literal of that type without this
	// field.
	literalNeeds string
	// declaredIn, when set, replaces pkgs, recv and names: the watched
	// members are every name declared in a file of this base name, in any
	// package but the one that uses it.
	declaredIn string
	// exempt reports the packages the rule does not apply to.
	exempt func(*types.Package) bool
	// allow, when set, names the //repolint: directive that exempts a
	// function whose doc comment carries it.
	allow string
	// format takes the member and its replacement.
	format, fix string
}

const (
	slogOrWriter = "an injected *slog.Logger (or fmt.F%s to an injected io.Writer)"
	slogOnly     = "an injected *slog.Logger"
	slogAndError = "an injected *slog.Logger and an error return"
)

var rules = []rule{{
	tag:  "wallclock",
	pkgs: []string{"time"},
	names: map[string]string{
		"Now": "", "Since": "", "Until": "", "After": "", "Sleep": "", "Tick": "",
		"NewTicker": "", "NewTimer": "", "AfterFunc": "",
	},
	// simclock is the sanctioned wrapper around the real clock.
	exempt: func(p *types.Package) bool { return path.Base(p.Path()) == "simclock" },
	format: "time.%s reads the wall clock; use %s",
	fix:    "the injected simclock.Clock",
}, {
	tag:       "norand",
	pkgs:      []string{"math/rand", "math/rand/v2"},
	names:     map[string]string{"New": "", "NewSource": "", "NewZipf": ""},
	allowOnly: true,
	format:    "rand.%s uses the global math/rand source; inject %s",
	fix:       "a seeded *rand.Rand",
}, {
	tag:  "structlog",
	pkgs: []string{"fmt"},
	names: map[string]string{
		"Print":   fmt.Sprintf(slogOrWriter, "print"),
		"Printf":  fmt.Sprintf(slogOrWriter, "printf"),
		"Println": fmt.Sprintf(slogOrWriter, "println"),
	},
	exempt: isMain,
	format: "fmt.%s in library package; use %s",
}, {
	tag:  "structlog",
	pkgs: []string{"log"},
	names: map[string]string{
		"Print": slogOnly, "Printf": slogOnly, "Println": slogOnly, "Output": slogOnly,
		"Fatal": slogAndError, "Fatalf": slogAndError, "Fatalln": slogAndError,
		"Panic": slogAndError, "Panicf": slogAndError, "Panicln": slogAndError,
	},
	exempt: isMain,
	format: "log.%s in library package; use %s",
}, {
	tag:          "clienttimeout",
	pkgs:         []string{"net/http"},
	names:        map[string]string{"Client": ""},
	literalNeeds: "Timeout",
	format:       "http.%s literal without an explicit Timeout waits forever on a hung peer; set %s",
	fix:          "Timeout (0 only if deliberate)",
}, {
	tag:    "clienttimeout",
	pkgs:   []string{"net/http"},
	names:  map[string]string{"DefaultClient": "", "Get": "", "Head": "", "Post": "", "PostForm": ""},
	format: "http.%s has no Timeout and waits forever on a hung peer; use %s",
	fix:    "an *http.Client with a stated Timeout",
}, {
	tag:   "storewrite",
	pkgs:  []string{"repro/internal/store", "store"}, // the second is the fixture's
	recv:  "Store",
	names: map[string]string{"Put": "", "Apply": "", "ApplyEncoded": ""},
	exempt: func(p *types.Package) bool {
		switch path.Base(p.Path()) {
		case "store", "lcm", "wal", "taxonomy":
			return true
		}
		return false
	},
	format: "Store.%s changes the registry's tables behind the write-ahead log; use %s",
	fix:    "an lcm.Manager operation (PutDirect for a server-managed object)",
}, {
	tag:        "pinned",
	declaredIn: "pinned.go",
	format:     "%s is kept only for bench/, which is frozen; use %s",
	fix:        "the name it adapts (see its doc comment)",
}, {
	tag:    "ctxprop",
	pkgs:   []string{"context"},
	names:  map[string]string{"Background": "", "TODO": ""},
	exempt: isMain,
	allow:  "ctxprop-allow",
	format: "context.%s in library code detaches the call from the request's deadline, cancellation and trace; %s",
	fix:    "thread the caller's context, or annotate the enclosing function //repolint:ctxprop-allow <why> if it is a compatibility shim",
}}

// isMain exempts binaries: they own the process and compose user-facing
// output.
func isMain(p *types.Package) bool { return p.Name() == "main" }

func run(pass *framework.Pass) (interface{}, error) {
	var active []*rule
	for i := range rules {
		if r := &rules[i]; r.exempt == nil || !r.exempt(pass.Pkg) {
			active = append(active, r)
		}
	}
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			inspect(pass, decl, allowed(pass, decl, active))
		}
	}
	return nil, nil
}

// allowed returns the rules that apply inside decl: those of active whose
// allow directive decl's doc comment does not carry.
func allowed(pass *framework.Pass, decl ast.Decl, active []*rule) []*rule {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return active
	}
	var out []*rule
	for _, r := range active {
		if r.allow == "" || !pass.FuncHasDirective(fd, r.allow) {
			out = append(out, r)
		}
	}
	return out
}

// inspect applies active to every reference and literal under decl.
func inspect(pass *framework.Pass, decl ast.Decl, active []*rule) {
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// The qualifier must name the package, so a method that
			// happens to share a banned name (logger.Printf) is not a hit.
			if id, ok := n.X.(*ast.Ident); ok && pass.PkgNameOf(id) != nil {
				for _, r := range active {
					if r.literalNeeds == "" && r.recv == "" {
						r.check(pass, n, pass.TypesInfo.Uses[n.Sel])
					}
				}
			} else if sel := pass.TypesInfo.Selections[n]; sel != nil {
				for _, r := range active {
					if r.declaredIn != "" || sel.Kind() != types.FieldVal && r.recv != "" && r.recv == recvName(sel.Obj()) {
						r.check(pass, n, sel.Obj())
					}
				}
			}
		case *ast.CompositeLit:
			// Resolved through the type checker, not syntax, so
			// &http.Client{...} and aliased imports are covered.
			if named, ok := pass.TypesInfo.Types[n].Type.(*types.Named); ok {
				for _, r := range active {
					if r.literalNeeds != "" && !setsField(n, r.literalNeeds) {
						r.check(pass, n, named.Obj())
					}
				}
			}
		}
		return true
	})
}

// recvName returns the name of the type a method is declared on.
func recvName(method types.Object) string {
	t := method.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// check reports at n when obj is a member the rule bans.
func (r *rule) check(pass *framework.Pass, n ast.Node, obj types.Object) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if r.declaredIn != "" {
		if obj.Pkg() != pass.Pkg && filepath.Base(pass.Fset.Position(obj.Pos()).Filename) == r.declaredIn {
			r.report(pass, n, obj, r.fix)
		}
		return
	}
	if !r.watches(obj.Pkg().Path()) {
		return
	}
	// A use rule bans what acts — functions and variables; naming a type
	// (rand.Rand, rand.Source) is always fine. A literal rule is about a type.
	if _, isType := obj.(*types.TypeName); isType != (r.literalNeeds != "") {
		return
	}
	fix, listed := r.names[obj.Name()]
	if listed == r.allowOnly {
		return
	}
	if fix == "" {
		fix = r.fix
	}
	r.report(pass, n, obj, fix)
}

func (r *rule) report(pass *framework.Pass, n ast.Node, obj types.Object, fix string) {
	pass.Report(framework.Diagnostic{
		Pos:     n.Pos(),
		Message: fmt.Sprintf(r.format, obj.Name(), fix) + " (" + r.tag + ")",
	})
}

func (r *rule) watches(pkgPath string) bool {
	for _, p := range r.pkgs {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// setsField reports whether the literal sets the named field. An
// all-positional literal necessarily sets every field.
func setsField(lit *ast.CompositeLit, field string) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}
