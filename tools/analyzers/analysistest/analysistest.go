// Package analysistest runs a framework.Analyzer over fixture packages
// under a testdata/src tree and checks its diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line expects diagnostics by carrying a trailing comment with
// one regexp (quoted or backquoted) per expected diagnostic:
//
//	t := time.Now() // want `time\.Now reads the wall clock`
//
// Every diagnostic must be matched by an expectation on its line and vice
// versa; mismatches fail the test with the position of the offender.
// Fixtures are typechecked with the standard library's source importer,
// so they may import any stdlib package, and a sibling fixture package by
// its directory name, but nothing else.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/tools/analyzers/framework"
)

// Run applies a to each fixture package (a directory under dir/src) and
// verifies the diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runOne(t, filepath.Join(dir, "src", pkg), pkg, a)
		})
	}
}

// TestData returns the absolute path of the caller's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("analysistest: resolving testdata: %v", err)
	}
	return abs
}

type diag struct {
	file string
	line int
	msg  string
}

func runOne(t *testing.T, dir, pkgPath string, a *framework.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: fixtures{src: filepath.Dir(dir), fset: fset, std: importer.ForCompiler(fset, "source", nil)}}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("analysistest: typechecking %s: %v", dir, err)
	}

	var got []diag
	pass := &framework.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d framework.Diagnostic) {
			pos := fset.Position(d.Pos)
			got = append(got, diag{file: filepath.Base(pos.Filename), line: pos.Line, msg: d.Message})
		},
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	sort.Slice(got, func(i, j int) bool {
		if got[i].file != got[j].file {
			return got[i].file < got[j].file
		}
		return got[i].line < got[j].line
	})

	used := make([]bool, len(got))
	for _, w := range wants {
		matched := false
		for i, d := range got {
			if used[i] || d.file != w.file || d.line != w.line {
				continue
			}
			if w.re.MatchString(d.msg) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range got {
		if !used[i] {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.file, d.line, d.msg)
		}
	}
}

// fixtures resolves an import to the sibling fixture package of that name
// if there is one — the stand-in for a repository package that the fixture
// under test calls into — and to the standard library otherwise.
type fixtures struct {
	src  string
	fset *token.FileSet
	std  types.Importer
}

func (im fixtures) Import(path string) (*types.Package, error) {
	dir := filepath.Join(im.src, path)
	if _, err := os.Stat(dir); err != nil {
		return im.std.Import(path)
	}
	files, err := parseDir(im.fset, dir)
	if err != nil {
		return nil, err
	}
	return (&types.Config{Importer: im}).Check(path, im.fset, files, nil)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysistest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysistest: no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysistest: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe finds the expectation regexps after a "want" marker: backquoted
// or double-quoted Go string literals.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range wantRe.FindAllString(text[idx+len("want "):], -1) {
					var pattern string
					if lit[0] == '`' {
						pattern = lit[1 : len(lit)-1]
					} else {
						var err error
						pattern, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants = append(wants, want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
