package analysis

import (
	"go/ast"
	"go/types"
)

// CommErrAnalyzer enforces the error-first transport contract of PR 4: no
// error returned by a core.Comm, core.Request or core.PersistentRequest
// method (or the *chanmpi.Comm concrete form) may be discarded. The nine
// panic paths chanmpi rewrote into typed errors are only an improvement if
// every call site actually looks at them — a discarded Barrier or Wait
// error turns a detected world failure back into the silent wedge the
// rewrite was built to kill.
//
// Flagged: a comm-method call used as a bare statement, launched with go
// or defer (the error is unobservable), or with the error position
// assigned to the blank identifier. Assigning to a variable — including a
// named return checked elsewhere — satisfies the contract; tracking
// whether the variable is subsequently read is intentionally out of scope
// (see the analysistest fixtures for the named-return case).
var CommErrAnalyzer = &Analyzer{
	Name: "commerr",
	Doc:  "flags discarded errors from core.Comm / Request / PersistentRequest methods",
	Run:  runCommErr,
}

// commErrTypes are the receiver types whose methods carry the error-first
// contract. core.Request and core.PersistentRequest are aliases of the
// chanmpi definitions, so matching the defining package covers both.
func isCommReceiver(t types.Type) bool {
	return namedType(t, corePath, "Comm") ||
		namedType(t, chanmpiPath, "Comm") ||
		namedType(t, chanmpiPath, "Request") ||
		namedType(t, chanmpiPath, "PersistentRequest")
}

func runCommErr(pass *Pass) error {
	info := pass.TypesInfo
	// commCall resolves a call to (receiver-type name, method name) if it
	// is an error-returning comm-contract method call.
	commCall := func(call *ast.CallExpr) (string, bool) {
		recv, name, ok := methodCall(info, call)
		if !ok || !isCommReceiver(recv) {
			return "", false
		}
		if _, errLast := returnsErrorLast(info, call); !errLast {
			return "", false // Rank(), Size()
		}
		return name, true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if name, ok := commCall(call); ok {
						pass.reportf(call.Pos(), "error from %s is discarded (error-first comm contract)", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := commCall(s.Call); ok {
					pass.reportf(s.Call.Pos(), "error from %s is unobservable in a go statement", name)
				}
			case *ast.DeferStmt:
				if name, ok := commCall(s.Call); ok {
					pass.reportf(s.Call.Pos(), "error from %s is unobservable in a deferred call", name)
				}
			case *ast.AssignStmt:
				// One call on the RHS; the error is its last result. Blank
				// in that LHS position discards it.
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := commCall(call)
				if !ok {
					return true
				}
				if id, isIdent := s.Lhs[len(s.Lhs)-1].(*ast.Ident); isIdent && id.Name == "_" {
					pass.reportf(call.Pos(), "error from %s is assigned to the blank identifier", name)
				}
			}
			return true
		})
	}
	return nil
}
