// Command repolint is the repository's static-analysis vettool. It runs
// the three invariant analyzers — bannedcall (the wallclock, norand,
// structlog, clienttimeout, storewrite and ctxprop rules), lockorder (lock
// order and `// guarded by` fields) and errwrap — over Go packages,
// enforcing the conventions that keep the registry reproduction
// deterministic, race-free, fault-tolerant and observably logged. Copied
// locks are go vet's copylocks check (see DESIGN.md, "Static analysis &
// invariants").
//
// It speaks the `go vet -vettool` unit-checker protocol, so the usual
// invocation is
//
//	go build -o bin/repolint ./cmd/repolint
//	go vet -vettool=bin/repolint ./...
//
// and for convenience it also accepts package patterns directly —
// `repolint ./...` re-execs itself through go vet, which handles package
// loading, export data, and caching:
//
//	repolint ./...
//
// Exit status is 0 when the tree is clean, 2 when any analyzer reports a
// diagnostic.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"repro/tools/analyzers/bannedcall"
	"repro/tools/analyzers/errwrap"
	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/lockorder"
)

// analyzers is the repolint suite, applied to every checked package.
var analyzers = []*framework.Analyzer{
	bannedcall.Analyzer,
	lockorder.Analyzer,
	errwrap.Analyzer,
}

func main() {
	var patterns []string
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full":
			printVersion()
			return
		case arg == "-flags":
			// The go command queries supported analyzer flags as JSON;
			// repolint's suite is not individually toggleable.
			fmt.Println("[]")
			return
		case arg == "help", arg == "-h", arg == "--help":
			printHelp()
			return
		case strings.HasSuffix(arg, ".cfg"):
			// Invoked by `go vet -vettool` on one package unit.
			os.Exit(checkConfig(arg))
		case strings.HasPrefix(arg, "-"):
			// Ignore other driver flags (-json, ...): diagnostics keep
			// the plain file:line:col format.
		default:
			patterns = append(patterns, arg)
		}
	}
	// Standalone mode: let go vet drive us over the requested packages.
	os.Exit(delegate(patterns))
}

// printVersion implements the -V=full handshake the go command uses to
// fingerprint vettools for build caching: the tool must print
// "<name> version <...buildID=...>" for its content hash.
func printVersion() {
	h := sha256.New()
	if self, err := os.Open(os.Args[0]); err == nil {
		_, _ = io.Copy(h, self)
		self.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", os.Args[0], h.Sum(nil)[:16])
}

func printHelp() {
	fmt.Println("repolint: static-analysis suite for the registry reproduction")
	fmt.Println()
	fmt.Println("usage: repolint [packages]   (or: go vet -vettool=repolint [packages])")
	fmt.Println()
	for _, a := range analyzers {
		fmt.Printf("  %-10s %s\n", a.Name, a.Doc)
	}
}

// delegate re-executes repolint through `go vet -vettool=self`, which
// performs package loading and hands each unit back to checkConfig.
func delegate(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: cannot locate own executable: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	return 0
}

// config is the JSON unit description the go command hands a vettool,
// mirroring x/tools' unitchecker.Config.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// checkConfig analyzes one package unit described by cfgPath and returns
// the process exit code.
func checkConfig(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "repolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command threads "vetx" fact files between dependency units;
	// repolint's analyzers need no cross-package facts, so an empty file
	// satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency unit: facts only, no diagnostics wanted
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "repolint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var diags []framework.Diagnostic
	for _, a := range analyzers {
		pass := &framework.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d framework.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}
	if len(diags) == 0 {
		return 0
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return 2
}

// typecheck type-checks the unit's files against the export data the go
// command compiled for its dependencies.
func typecheck(fset *token.FileSet, files []*ast.File, cfg *config) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tconf := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
