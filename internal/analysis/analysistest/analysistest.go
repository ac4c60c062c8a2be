// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	c.Barrier() // want `error from Barrier is discarded`
//
// Each want comment carries one or more backquoted or double-quoted
// regular expressions; every diagnostic on that line must be matched by
// one of them, and every regexp must match a diagnostic. Fixture files
// live under testdata/ (invisible to the go tool) and import the real
// repro packages, which are resolved — like everything in
// internal/analysis — through the local toolchain's export data.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package in dir (every .go file), runs the
// analyzer, and reports mismatches against the want comments through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	match(t, diags, collectWants(t, pkg.Fset, pkg.Files))
}

// RunModule loads every package of the fixture module rooted at dir (its
// own go.mod; test files included) with analysis.Load, runs a
// whole-module check over them, and reports mismatches against the want
// comments of all their files through t.
func RunModule(t *testing.T, dir string, check func([]*analysis.Package) []analysis.Diagnostic) {
	t.Helper()
	pkgs, err := analysis.Load(dir, true, "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg.Fset, pkg.Files)...)
	}
	match(t, check(pkgs), wants)
}

// match pairs diagnostics with wants line by line: every diagnostic must
// match a want on its line, and every want a diagnostic.
func match(t *testing.T, diags []analysis.Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRx extracts the quoted regexps of a want comment.
var wantRx = regexp.MustCompile("//\\s*want\\s+(.*)$")

var wantArgRx = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArgRx.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, a := range args {
					pat := a[1]
					if pat == "" {
						pat = a[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// loadFixture parses and type-checks the fixture files in dir as one
// package, resolving their imports (the real repro packages and the
// standard library) through `go list -deps -export`.
func loadFixture(dir string) (*analysis.Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)

	imp, err := analysis.ExportDataImporter(fset, imports)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkgPath := "repro/fixture/" + filepath.Base(dir)
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return &analysis.Package{
		ImportPath: pkgPath,
		Dir:        abs,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
