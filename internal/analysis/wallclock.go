package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallClockAnalyzer enforces virtual-time purity: in a package whose
// package clause carries the //repro:virtualtime directive (internal/des,
// internal/simnet), any use of the wall clock is a bug. The simulator's
// determinism rests on every timestamp coming from the DES clock —
// des.Sim.Now advances only when events fire — so a stray time.Now or
// time.Sleep smuggles host scheduling back into results that must be
// bit-reproducible across machines and runs.
//
// The directive marks the package, not the file: one //repro:virtualtime
// in a package doc comment covers every file of that package, including
// in-package test files. Flagged are the wall-clock entry points of
// package time — Now, Since, Until, Sleep, After, AfterFunc, Tick,
// NewTimer, NewTicker — whether called or merely referenced (a stored
// time.Now function value is the same leak one hop later).
//
// A sanctioned clock source is annotated in place with
// `//reprolint:ignore wallclock <reason>`: simnet's WallBudget measures
// PLANNING wall time (how long the planner lets the simulator run), not
// simulated time, and is the one legitimate user.
var WallClockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "flags wall-clock time package uses inside //repro:virtualtime (virtual-time pure) packages",
	Run:  runWallClock,
}

// virtualTimeDirective is matched against the package doc comments.
const virtualTimeDirective = "//repro:virtualtime"

// wallClockFuncs are package time's wall-clock entry points. Conversions
// and arithmetic (time.Duration, time.Unix, the constants) stay legal —
// the des clock is float64 seconds, but callers converting budgets or
// intervals still speak time.Duration at the API boundary.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWallClock(pass *Pass) error {
	pure := false
	for _, f := range pass.Files {
		if f.Doc == nil {
			continue
		}
		for _, c := range f.Doc.List {
			if strings.TrimSpace(c.Text) == virtualTimeDirective {
				pure = true
			}
		}
	}
	if !pure {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			pass.reportf(sel.Pos(), "time.%s in a //repro:virtualtime package: virtual-time purity requires every timestamp to come from the des clock", sel.Sel.Name)
			return true
		})
	}
	return nil
}
