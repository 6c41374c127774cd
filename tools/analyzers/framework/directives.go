package framework

import (
	"go/ast"
	"strings"
)

// DirectivePrefix introduces a machine-readable `//repolint:<name> [args]`
// comment on a function's doc comment. One directive is recognized:
//
//	//repolint:ctxprop-allow  — compatibility shim may call context.Background
//	                            (bannedcall's ctxprop row)
//
// The arguments (everything after the name) are free text, conventionally a
// one-line justification that shows up in reviews. Like go:build
// constraints, a directive comment has no space after the slashes, so
// gofmt keeps it attached to the commented declaration.
const DirectivePrefix = "//repolint:"

// FuncHasDirective reports whether fd's doc comment carries the named
// directive.
func (p *Pass) FuncHasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
		if !ok {
			continue
		}
		if got, _, _ := strings.Cut(rest, " "); strings.TrimSpace(got) == name {
			return true
		}
	}
	return false
}
