package analysis

import (
	"go/ast"
	"go/types"
)

// ClusterCtxAnalyzer enforces the job-body locking rule documented on
// core.Cluster since PR 3: a cluster job body executes while the
// submitting goroutine holds the cluster's mutex, so calling any
// mutex-taking Cluster method from inside the body self-deadlocks — the
// body waits for the lock that is waiting for the body. Mode() is
// lock-free and explicitly safe.
//
// A job body is recognized by its type, not its destination: any function
// literal (or named function) passed as an argument whose parameter type
// is the job-body signature func(*core.Worker) error is checked. That
// covers (*core.Cluster).Run directly, and equally any wrapper that
// forwards bodies to a cluster — the session pools of internal/serve, a
// test harness, a retry shim — so pooled-cluster job bodies get the same
// guarantee without the analyzer knowing the wrapper by name.
//
// From each body the check walks the calls reachable through same-package
// functions and methods (one fixpoint over the package's call graph — the
// "call-graph reachability from body literals" of the PR 3 postmortem).
// A reachable call to a locking method is reported at the body's call
// site; helpers are reported with the chain's first hop so the deadlock
// is attributable.
//
// Locking methods: Mul, MulContext, Run, RunContext, SetMode, Convert,
// Close, Failed. Lock-free and allowed: Mode, Ranks, LocalRanks, Rows,
// Plan, Interrupt.
// Cross-package helpers are a documented non-goal (export data carries no
// bodies); the runtime's own packages keep job-body helpers local.
var ClusterCtxAnalyzer = &Analyzer{
	Name: "clusterctx",
	Doc:  "flags mutex-taking *core.Cluster methods called (transitively) from cluster job bodies",
	Run:  runClusterCtx,
}

// lockingClusterMethods take c.mu; calling them from a job body
// self-deadlocks.
var lockingClusterMethods = map[string]bool{
	"Mul":        true,
	"MulContext": true,
	"Run":        true,
	"RunContext": true,
	"SetMode":    true,
	"Convert":    true,
	"Close":      true,
	"Failed":     true,
}

func runClusterCtx(pass *Pass) error {
	info := pass.TypesInfo

	// lockingCall returns the method name if call is a locking method on a
	// *core.Cluster value.
	lockingCall := func(call *ast.CallExpr) (string, bool) {
		recv, name, ok := methodCall(info, call)
		if !ok || !lockingClusterMethods[name] || !namedType(recv, corePath, "Cluster") {
			return "", false
		}
		return name, true
	}

	// Pass 1 — taint summaries for this package's declared functions and
	// methods: which locking Cluster methods does each call directly, and
	// which package-local functions does it call. Inside core itself, Run
	// bodies constructed by the runtime (the resident mulJob) are built
	// before submission, not inside a body — the same rule applies.
	type summary struct {
		locking map[string]bool      // directly called locking methods
		callees map[*types.Func]bool // same-package static callees
	}
	summaries := make(map[*types.Func]*summary)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &summary{locking: map[string]bool{}, callees: map[*types.Func]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := lockingCall(call); ok {
					s.locking[name] = true
					return true
				}
				if callee := staticCallee(info, call); callee != nil && callee.Pkg() == pass.Pkg {
					s.callees[callee] = true
				}
				return true
			})
			summaries[obj] = s
		}
	}

	// Fixpoint: propagate taint through same-package call edges.
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			for callee := range s.callees {
				cs, ok := summaries[callee]
				if !ok {
					continue
				}
				for m := range cs.locking {
					if !s.locking[m] {
						s.locking[m] = true
						changed = true
					}
				}
			}
		}
	}

	// reportBody checks one argument in job-body position: a literal is
	// walked directly (plus reachable helpers), a named function is
	// checked through its summary.
	reportBody := func(arg ast.Expr) {
		body, ok := arg.(*ast.FuncLit)
		if !ok {
			if callee := staticCallee(info, arg); callee != nil {
				if s, ok := summaries[callee]; ok {
					for m := range s.locking {
						pass.reportf(arg.Pos(), "job body %s calls Cluster.%s, which takes the cluster lock the submitter holds (self-deadlock)", callee.Name(), m)
					}
				}
			}
			return
		}
		ast.Inspect(body.Body, func(bn ast.Node) bool {
			bcall, ok := bn.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m, ok := lockingCall(bcall); ok {
				pass.reportf(bcall.Pos(), "Cluster.%s called from inside a cluster job body self-deadlocks (the submitter holds the cluster lock; Mode is the lock-free exception)", m)
				return true
			}
			if callee := staticCallee(info, bcall); callee != nil {
				if s, ok := summaries[callee]; ok {
					for m := range s.locking {
						pass.reportf(bcall.Pos(), "%s reaches Cluster.%s from inside a cluster job body (self-deadlock via helper)", callee.Name(), m)
					}
				}
			}
			return true
		})
	}

	// Pass 2 — walk every call and check each argument sitting in a
	// job-body-typed parameter slot. Cluster.Run is just one such call;
	// wrappers that forward bodies to a pooled cluster match the same way.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig, ok := types.Unalias(info.TypeOf(call.Fun)).(*types.Signature)
			if !ok {
				return true // conversion, builtin, type expression
			}
			params := sig.Params()
			for i, arg := range call.Args {
				pt, ok := paramType(params, i, sig.Variadic())
				if !ok || !isJobBodyType(pt) {
					continue
				}
				reportBody(arg)
			}
			return true
		})
	}
	return nil
}

// paramType returns the declared type of the i-th argument's parameter,
// unpacking the variadic tail.
func paramType(params *types.Tuple, i int, variadic bool) (types.Type, bool) {
	n := params.Len()
	if n == 0 {
		return nil, false
	}
	if variadic && i >= n-1 {
		if sl, ok := types.Unalias(params.At(n - 1).Type()).(*types.Slice); ok {
			return sl.Elem(), true
		}
		return nil, false
	}
	if i >= n {
		return nil, false
	}
	return params.At(i).Type(), true
}

// isJobBodyType reports whether t is the cluster job-body signature
// func(*core.Worker) error — the type whose values run under the
// submitter-held cluster lock, wherever they are passed.
func isJobBodyType(t types.Type) bool {
	sig, ok := types.Unalias(t).(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !isErrorType(sig.Results().At(0).Type()) {
		return false
	}
	return namedType(sig.Params().At(0).Type(), corePath, "Worker")
}

// staticCallee resolves the *types.Func a call or function-valued
// expression statically refers to: a plain function, a method, or a
// function-valued identifier bound to a declaration.
func staticCallee(info *types.Info, n ast.Expr) *types.Func {
	switch e := n.(type) {
	case *ast.CallExpr:
		return staticCallee(info, e.Fun)
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn // package-qualified function
		}
	case *ast.ParenExpr:
		return staticCallee(info, e.X)
	}
	return nil
}
