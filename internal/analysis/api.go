package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// apiMark is the directive that keeps an exported function or method with
// no outside caller: `//repro:api <reason>` in its doc comment.
const apiMark = "//repro:api"

// apiKey names a function or method across type-checker universes. Load
// type-checks each package from source, but its importers see it through
// export data, so one declaration is several types.Objects; package path,
// receiver type name and name identify it in all of them.
type apiKey struct{ pkg, recv, name string }

func keyOf(fn *types.Func) apiKey {
	fn = fn.Origin()
	k := apiKey{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			k.recv = n.Obj().Name()
		}
	}
	return k
}

// UnreferencedExports is the exported-API gate. It reports every exported
// function or method declared in a non-test file of an internal/ package
// that no non-test file of another package in pkgs references; a finding
// is code that only its own package or only tests call. Exempt are:
//
//   - methods through which their type satisfies an interface declared in
//     the module or the standard library, including the unnamed
//     Unwrap/Is/As interfaces that package errors looks for;
//   - declarations whose doc comment carries `//repro:api <reason>` (a
//     mark without a reason is itself a finding);
//   - packages whose name ends in "test", the test-support convention of
//     net/http/httptest.
//
// pkgs should be the whole module, so that every caller is seen.
//
//repro:api the gate itself; TestExportedAPIHasOutsideCaller runs it
func UnreferencedExports(pkgs []*Package) []Diagnostic {
	used := make(map[apiKey]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() == pkg.Types.Path() || isTestFile(pkg, id.Pos()) {
				continue
			}
			used[keyOf(fn)] = true
		}
		for k := range satisfyingMethods(pkg.Types) {
			used[k] = true
		}
	}

	var diags []Diagnostic
	report := func(pkg *Package, d *ast.FuncDecl, msg string) {
		diags = append(diags, Diagnostic{Analyzer: "api", Pos: pkg.Fset.Position(d.Name.Pos()), Message: msg})
	}
	for _, pkg := range pkgs {
		if !isInternal(pkg.Types.Path()) || strings.HasSuffix(pkg.Types.Name(), "test") {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				name := displayName(fn)
				if marked, reason := apiReason(d.Doc); marked {
					if reason == "" {
						report(pkg, d, name+": "+apiMark+" needs a reason")
					}
					continue
				}
				if !used[keyOf(fn)] {
					report(pkg, d, name+" has no caller outside its package: delete it, unexport it, move it into test code or mark it "+apiMark+" <reason>")
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags
}

// satisfyingMethods returns the methods through which a named type of an
// internal/ package satisfies an interface, both as seen from pkg: pkg's
// own declarations and everything it imports, directly or not. Every
// package is one universe, so each interface is matched against types
// from the same importer.
func satisfyingMethods(pkg *types.Package) map[apiKey]bool {
	var universe []*types.Package
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		universe = append(universe, p)
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	visit(pkg)

	ifaces := append(errorsInterfaces(), errorIface.Underlying().(*types.Interface))
	var named []*types.Named
	for _, p := range universe {
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t, ok := tn.Type().(*types.Named)
			if !ok || t.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if isInternal(p.Path()) && t.NumMethods() > 0 {
				named = append(named, t)
			}
		}
	}

	out := make(map[apiKey]bool)
	for _, t := range named {
		ptr := types.NewPointer(t)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					out[keyOf(fn)] = true
				}
			}
		}
	}
	return out
}

// errorsInterfaces are the interfaces package errors declares inline:
// Unwrap() error, Unwrap() []error, Is(error) bool and As(any) bool.
func errorsInterfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	boolT := types.Typ[types.Bool]
	method := func(name string, params, results []types.Type) *types.Interface {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewParam(0, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil)
		return it.Complete()
	}
	return []*types.Interface{
		method("Unwrap", nil, []types.Type{errT}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errT)}),
		method("Is", []types.Type{errT}, []types.Type{boolT}),
		method("As", []types.Type{anyT}, []types.Type{boolT}),
	}
}

// apiReason reports whether doc carries the //repro:api mark, and its
// reason.
func apiReason(doc *ast.CommentGroup) (marked bool, reason string) {
	if doc == nil {
		return false, ""
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, apiMark); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

func displayName(fn *types.Func) string {
	k := keyOf(fn)
	pkg := k.pkg[strings.LastIndex(k.pkg, "/")+1:]
	if k.recv != "" {
		return pkg + "." + k.recv + "." + k.name
	}
	return pkg + "." + k.name
}
