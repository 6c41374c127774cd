// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// used by the repolint analyzers. The container image deliberately carries
// no module dependencies beyond the standard library, so rather than
// vendoring x/tools we reproduce the small slice of its API that the
// analyzers need; an analyzer written against this package ports to the
// real go/analysis framework by changing one import path.
//
// Drivers: cmd/repolint implements the `go vet -vettool` unitchecker
// protocol on top of this package, and analysistest runs analyzers over
// testdata fixtures with // want expectations.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by `repolint help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass provides one analyzed package to an Analyzer's Run function,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos, tagged with the
// analyzer's name so multi-analyzer output stays attributable.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...) + " (" + p.Analyzer.Name + ")"})
}

// IsTestFile reports whether the file node comes from a _test.go file.
// The repolint invariants govern production code; tests may use the wall
// clock, the global rand, and ad-hoc errors freely.
func (p *Pass) IsTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// NonTestFiles returns the package's non-test files.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.IsTestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// PkgNameOf resolves an identifier to the imported package it names, or
// nil if the identifier is not a package qualifier. It is the building
// block for "calls into package X" checks.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}
