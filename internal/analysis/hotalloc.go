package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAllocAnalyzer is the static complement of the TestAllocGate* runtime
// gates: functions annotated //repro:noalloc (the resident steady-state
// paths — halo restart loops, team region dispatch, kernel passes) must
// not contain per-call heap allocations. The alloc gates catch a
// regression after it runs; hotalloc flags the allocating construct at
// vet time.
//
// Flagged inside an annotated function: make, new, append (growth), map
// and slice composite literals, address-taken composite literals,
// function literals (closure capture), string<->[]byte/[]rune
// conversions, go statements, and interface boxing of non-pointer
// concrete values (assignments, call arguments and returns into
// interface-typed slots).
//
// Two escape-analysis-adjacent exemptions keep the check aligned with how
// the hot paths are actually written:
//
//   - Cold guards: allocations inside a block that terminates in
//     return/panic (the error early-exits) are not steady-state work.
//   - Grow-once buffers: the resident `if cap(buf) < n { buf = make(…) }`
//     idiom allocates only until the high-water mark; such sites carry an
//     explicit //repro:alloc-ok comment rather than an analyzer guess.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap allocations inside //repro:noalloc functions",
	Run:  runHotAlloc,
}

// noallocDirective marks a function whose body must be allocation-free in
// steady state.
const noallocDirective = "//repro:noalloc"

func hasNoalloc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), noallocDirective) {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoalloc(fd.Doc) {
				continue
			}
			checkNoalloc(pass, fd)
		}
	}
	return nil
}

func checkNoalloc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name

	var sig *types.Signature
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}

	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		// Cold guards: a block that exits the function is not the
		// steady-state path.
		if b, ok := n.(*ast.BlockStmt); ok && terminates(b.List) && n != fd.Body {
			return false
		}
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.reportf(e.Pos(), "closure allocates in %s %s", noallocDirective, name)
			return false
		case *ast.GoStmt:
			pass.reportf(e.Pos(), "go statement allocates a goroutine in %s %s", noallocDirective, name)
		case *ast.CallExpr:
			checkNoallocCall(pass, info, e, name)
		case *ast.CompositeLit:
			checkNoallocComposite(pass, info, e, stack, name)
		case *ast.AssignStmt:
			for i, rhs := range e.Rhs {
				if len(e.Lhs) != len(e.Rhs) {
					break
				}
				if t, ok := info.Types[e.Lhs[i]]; ok {
					checkBoxing(pass, info, rhs, t.Type, name)
				}
			}
		case *ast.ReturnStmt:
			if sig == nil || sig.Results().Len() != len(e.Results) {
				break
			}
			for i, res := range e.Results {
				checkBoxing(pass, info, res, sig.Results().At(i).Type(), name)
			}
		}
		return true
	})
}

func checkNoallocCall(pass *Pass, info *types.Info, call *ast.CallExpr, name string) {
	// Builtins: make / new / append allocate (append at least potentially,
	// on growth — statically indistinguishable, so it is flagged).
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.reportf(call.Pos(), "%s allocates in %s function", b.Name(), noallocDirective)
			}
			return
		}
	}
	// Conversions: string <-> []byte / []rune copy their payload.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		if argTV, ok := info.Types[call.Args[0]]; ok {
			from := argTV.Type.Underlying()
			if isStringByteConv(from, to) {
				pass.reportf(call.Pos(), "string/slice conversion allocates in %s function", noallocDirective)
			}
		}
		return
	}
	// Interface boxing of arguments.
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, info, arg, pt, name)
	}
}

// checkBoxing flags a non-pointer concrete value converted to an
// interface type: the value escapes to the heap to fit behind the
// interface word. Pointers, interfaces, nil and constants are free.
func checkBoxing(pass *Pass, info *types.Info, expr ast.Expr, target types.Type, name string) {
	if target == nil {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Value != nil { // constants are allocated statically
		return
	}
	t := tv.Type
	if t == nil || types.Identical(t, types.Typ[types.UntypedNil]) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return // single-word values fit the interface without boxing
	}
	pass.reportf(expr.Pos(), "value of type %s boxed into %s in %s %s", t, target, noallocDirective, name)
}

func checkNoallocComposite(pass *Pass, info *types.Info, lit *ast.CompositeLit, stack []ast.Node, name string) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.reportf(lit.Pos(), "%s literal allocates in %s %s", describeComposite(tv.Type), noallocDirective, name)
		return
	}
	// A struct/array value literal lives on the stack unless its address
	// is taken.
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			pass.reportf(lit.Pos(), "&%s escapes to the heap in %s %s", describeComposite(tv.Type), noallocDirective, name)
		}
	}
}

func describeComposite(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	default:
		return "composite"
	}
}

func isStringByteConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStr(to))
}
