// Package analysis is reprolint's analyzer suite: static checks that
// encode this repository's hard-won runtime contracts — the error-first
// core.Comm surface, the one-Wait-per-Start persistent-channel discipline,
// the zero-allocation steady state, canonical-rank-order reductions, and
// the Cluster job-body locking rule — as machine-checked law. The runtime
// tests (alloc gates, bit-identity suites) catch these bugs after they are
// written; the analyzers catch them at vet time, before a test ever runs.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, want-comment fixtures) but is built entirely on the
// standard library: the toolchain image carries no external modules, so
// package loading rides `go list -deps -export -json` and the gc export
// data importer instead of go/packages. cmd/reprolint is the multichecker
// front end; it also speaks the `go vet -vettool` unitchecker protocol.
//
// See doc.go ("Static contracts") for the invariant each analyzer encodes
// and the //repro:noalloc annotation convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check: a name (used in diagnostics and
// suppression comments), a one-paragraph contract description, and the
// per-package run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer run, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// reportf records a diagnostic at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the reprolint analyzer suite in presentation order.
func All() []*Analyzer {
	return []*Analyzer{
		CommErrAnalyzer,
		PersistWaitAnalyzer,
		HotAllocAnalyzer,
		RankOrderAnalyzer,
		ClusterCtxAnalyzer,
		WallClockAnalyzer,
	}
}

// ignoreDirective matches the uniform suppression comment:
//
//	//reprolint:ignore <name>[,<name>...] [reason]
//
// placed on the flagged line or alone on the line directly above it. The
// hotalloc-specific //repro:alloc-ok comment (documented with the noalloc
// annotation) is accepted as a synonym for "reprolint:ignore hotalloc".
var ignoreDirective = regexp.MustCompile(`^//\s*reprolint:ignore\s+([a-z]+(?:\s*,\s*[a-z]+)*)`)

// suppressions maps "file:line" to the analyzer names silenced there.
func suppressions(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	sup := make(map[string]map[string]bool)
	add := func(pos token.Position, names ...string) {
		for _, delta := range []int{0, 1} {
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+delta)
			if sup[key] == nil {
				sup[key] = make(map[string]bool)
			}
			for _, n := range names {
				sup[key][strings.TrimSpace(n)] = true
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				if strings.HasPrefix(c.Text, "//repro:alloc-ok") {
					add(pos, "hotalloc")
					continue
				}
				if m := ignoreDirective.FindStringSubmatch(c.Text); m != nil {
					add(pos, strings.Split(m[1], ",")...)
				}
			}
		}
	}
	return sup
}

// RunAnalyzers runs the given analyzers over one loaded package, applies
// the suppression comments, and returns the surviving diagnostics in
// position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sup := suppressions(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if s := sup[key]; s != nil && s[d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}
