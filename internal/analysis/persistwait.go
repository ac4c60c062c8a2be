package analysis

import (
	"go/ast"
	"go/token"
)

// PersistWaitAnalyzer enforces the one-Wait-per-Start persistent-channel
// contract hardened in PR 5: every PersistentRequest.Start must be matched
// by a Wait before the same channel is started again (and, for sends,
// before the bound buffer is refilled — the waitHalo discipline). A
// double Start corrupts the channel's single completion token; on the
// in-process runtime it surfaces as a runtime error, on a genuinely
// asynchronous transport it silently reuses a buffer still in flight.
//
// The check is function-local and syntactic on the receiver expression:
//
//   - Two Starts of the same receiver in one statement block with no
//     intervening Wait of that receiver are flagged at the second Start.
//   - A Start inside a loop whose receiver does not depend on the loop
//     variables needs a Wait of the same receiver inside that loop body;
//     otherwise the next iteration is a double Start.
//
// Receivers that do depend on the loop variables (reqs[i].Start() in a
// range loop — the postRecvs/gatherAndSend shape) start a different
// channel each iteration and are exempt. Start and Wait split across
// helper functions (postRecvs starts, waitHalo waits) is an explicit
// non-goal: cross-function pairing is the callers' contract, covered by
// the runtime tests.
var PersistWaitAnalyzer = &Analyzer{
	Name: "persistwait",
	Doc:  "flags PersistentRequest.Start calls not matched by a Wait (one-Wait-per-Start)",
	Run:  runPersistWait,
}

// persistEvent is one Start or Wait call on a persistent request.
type persistEvent struct {
	key   string // printed receiver expression
	start bool   // Start (true) or Wait (false)
	pos   token.Pos
	node  *ast.CallExpr
}

func runPersistWait(pass *Pass) error {
	funcBodies(pass.Files, func(_ string, _ *ast.CommentGroup, body *ast.BlockStmt) {
		checkPersistBody(pass, body)
	})
	return nil
}

// persistCall classifies a call as Start/Wait on a PersistentRequest and
// returns its receiver key.
func persistCall(pass *Pass, call *ast.CallExpr) (ev persistEvent, ok bool) {
	recv, name, isMethod := methodCall(pass.TypesInfo, call)
	if !isMethod || (name != "Start" && name != "Wait") {
		return ev, false
	}
	if !namedType(recv, chanmpiPath, "PersistentRequest") {
		return ev, false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	return persistEvent{
		key:   exprString(pass.Fset, sel.X),
		start: name == "Start",
		pos:   call.Pos(),
		node:  call,
	}, true
}

func checkPersistBody(pass *Pass, body *ast.BlockStmt) {
	// Rule A — double Start in one statement block: for every block in
	// this function body (not descending into nested function literals),
	// scan its events in source order per receiver.
	walkWithStack(body, func(n ast.Node, _ []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != body {
			return false // delivered separately by funcBodies
		}
		block, isBlock := n.(*ast.BlockStmt)
		if !isBlock {
			return true
		}
		lastStart := make(map[string]*persistEvent)
		for _, stmt := range block.List {
			for _, ev := range stmtEvents(pass, stmt) {
				e := ev
				if !e.start {
					delete(lastStart, e.key)
					continue
				}
				if prev, open := lastStart[e.key]; open {
					pass.reportf(e.pos, "%s.Start follows Start at line %d with no intervening Wait (one-Wait-per-Start)",
						e.key, pass.Fset.Position(prev.pos).Line)
				}
				lastStart[e.key] = &e
			}
		}
		return true
	})

	// Rule B — Start inside a loop with no Wait in the same loop body.
	walkWithStack(body, func(n ast.Node, _ []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != body {
			return false
		}
		loopBody, loopVars := loopParts(n)
		if loopBody == nil {
			return true
		}
		events := collectEvents(pass, loopBody)
		waited := make(map[string]bool)
		for _, ev := range events {
			if !ev.start {
				waited[ev.key] = true
			}
		}
		reported := make(map[string]bool)
		for _, ev := range events {
			if !ev.start || waited[ev.key] || reported[ev.key] {
				continue
			}
			if exprUsesVars(ev.node.Fun.(*ast.SelectorExpr).X, loopVars) {
				continue // a different channel each iteration
			}
			reported[ev.key] = true
			pass.reportf(ev.pos, "%s.Start in a loop with no Wait in the loop body restarts an in-flight channel", ev.key)
		}
		return true
	})
}

// stmtEvents collects the persistent-channel events syntactically inside
// one statement, without descending into nested blocks (those are scanned
// as their own blocks by rule A) or function literals.
func stmtEvents(pass *Pass, stmt ast.Stmt) []persistEvent {
	var evs []persistEvent
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if ev, ok := persistCall(pass, call); ok {
				evs = append(evs, ev)
			}
		}
		return true
	})
	return evs
}

// collectEvents collects every event under root, at any block depth,
// excluding nested function literals.
func collectEvents(pass *Pass, root ast.Node) []persistEvent {
	var evs []persistEvent
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if ev, ok := persistCall(pass, call); ok {
				evs = append(evs, ev)
			}
		}
		return true
	})
	return evs
}

// loopParts returns the body and iteration-variable names of a loop node.
func loopParts(n ast.Node) (*ast.BlockStmt, map[string]bool) {
	vars := make(map[string]bool)
	switch l := n.(type) {
	case *ast.ForStmt:
		collectAssigned(l.Init, vars)
		collectAssigned(l.Post, vars)
		return l.Body, vars
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{l.Key, l.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				vars[id.Name] = true
			}
		}
		return l.Body, vars
	}
	return nil, nil
}

func collectAssigned(s ast.Stmt, vars map[string]bool) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				vars[id.Name] = true
			}
		}
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok {
			vars[id.Name] = true
		}
	}
}

// exprUsesVars reports whether the expression mentions any of the names.
func exprUsesVars(e ast.Expr, vars map[string]bool) bool {
	if len(vars) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[id.Name] {
			found = true
		}
		return !found
	})
	return found
}
