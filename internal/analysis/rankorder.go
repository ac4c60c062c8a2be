package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RankOrderAnalyzer enforces the bit-determinism rule of PR 4: reduction
// combine loops iterate ranks in canonical ascending order 0 ⊕ 1 ⊕ … ⊕
// size-1. Floating-point reduction is not associative, so the chanmpi and
// tcpmpi reducers only produce bit-identical results — across runs AND
// across transports — because both walk their per-rank contributions in
// the same order. A descending, strided, or map-ordered loop around
// ReduceOp.Combine silently breaks every bit-identity test downstream.
//
// Any loop enclosing a ReduceOp.Combine call must therefore be provably
// ascending with unit stride: a classic for loop with `<`/`<=` condition
// and `++` post, or a range over a slice, array or integer. Descending
// (`--`), compound-assignment strides, and range-over-map loops are
// flagged. Loops with no post statement (condition-only service loops)
// are not iteration orders and pass.
var RankOrderAnalyzer = &Analyzer{
	Name: "rankorder",
	Doc:  "flags reduction combine loops that do not iterate ranks in canonical ascending order",
	Run:  runRankOrder,
}

func runRankOrder(pass *Pass) error {
	info := pass.TypesInfo
	reported := make(map[token.Pos]bool) // one report per offending loop
	for _, f := range pass.Files {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, isMethod := methodCall(info, call)
			if !isMethod || name != "Combine" || !namedType(recv, chanmpiPath, "ReduceOp") {
				return true
			}
			for _, anc := range stack {
				switch loop := anc.(type) {
				case *ast.ForStmt:
					if bad, why := badForDirection(loop); bad && !reported[loop.For] {
						reported[loop.For] = true
						pass.reportf(loop.For, "combine loop %s: reductions must iterate ranks in canonical ascending order", why)
					}
				case *ast.RangeStmt:
					if tv, ok := info.Types[loop.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !reported[loop.For] {
							reported[loop.For] = true
							pass.reportf(loop.For, "combine loop ranges over a map: iteration order is non-deterministic, reductions must combine in canonical rank order")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// badForDirection reports whether a classic for loop provably iterates in
// a non-canonical order: a decrementing post statement, or a compound
// stride other than += 1.
func badForDirection(loop *ast.ForStmt) (bool, string) {
	switch post := loop.Post.(type) {
	case nil:
		return false, "" // condition-only loop, not a rank iteration
	case *ast.IncDecStmt:
		if post.Tok == token.DEC {
			return true, "iterates downward (-- post statement)"
		}
		return false, ""
	case *ast.AssignStmt:
		switch post.Tok {
		case token.SUB_ASSIGN:
			return true, "iterates downward (-= post statement)"
		case token.ADD_ASSIGN:
			if len(post.Rhs) == 1 {
				if lit, ok := post.Rhs[0].(*ast.BasicLit); ok && lit.Value == "1" {
					return false, ""
				}
			}
			return true, "strides by more than one rank (+= post statement)"
		case token.MUL_ASSIGN, token.QUO_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
			return true, "strides non-linearly"
		}
	}
	return false, ""
}
