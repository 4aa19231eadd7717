package analyzers

import (
	"go/ast"
	"go/types"

	"statcube/internal/lint"
)

// spanend: an obs span must be ended on every path out of the function
// that created it (or handed off — returned, passed along, captured).
// A span that is never ended reports a wildly wrong duration the next
// time anything reads it, and under the flight recorder it pins its
// ring slot; both failure modes are silent, which is exactly what a
// path-sensitive check is for.
func newSpanend() *lint.Analyzer {
	return newLeakAnalyzer(&leakSpec{
		name:    "spanend",
		doc:     "obs spans must be ended (or handed off) on every path",
		acquire: spanAcquire,
		release: spanRelease,
	})
}

func spanAcquire(pass *lint.Pass, stmt ast.Node) []acqSite {
	call := singleCall(stmt)
	if call == nil {
		return nil
	}
	if recv := spanMethodRecv(pass.Info, call, "Child"); recv == nil &&
		!calleeFromPkg(pass.Info, call, "internal/obs", "NewSpan") {
		return nil
	}
	fact := leakFact{pos: call.Pos()}
	if res, _, ok := acquireBinding(pass.Info, stmt, call); ok {
		if res == nil {
			if !blankResult(stmt) {
				return nil // bound to a selector/index: stored away, a hand-off
			}
		} else {
			fact.obj = res
		}
	}
	return []acqSite{{fact: fact, desc: "span (" + spanDesc(pass.Info, call) + ")"}}
}

func spanRelease(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	recv := spanMethodRecv(info, call, "End")
	if recv == nil {
		return nil, false
	}
	if o := exprObj(info, recv); o != nil {
		return o, false
	}
	return nil, true
}

// spanMethodRecv returns the receiver expression when call invokes the
// named method on internal/obs's Span, else nil.
func spanMethodRecv(info *types.Info, call *ast.CallExpr, name string) ast.Expr {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != name || !isMethod(f) || f.Pkg() == nil ||
		!pathHasSuffix(f.Pkg().Path(), "internal/obs") || recvTypeName(f) != "Span" {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// spanDesc names the acquisition for the diagnostic: NewSpan or Child.
func spanDesc(info *types.Info, call *ast.CallExpr) string {
	if f := calleeFunc(info, call); f != nil && f.Name() == "Child" {
		return "Span.Child"
	}
	return "obs.NewSpan"
}

// blankResult reports whether the acquisition's resource position is the
// blank identifier or the whole result is discarded — the fact then has
// no object and only a wildcard release can cover it.
func blankResult(stmt ast.Node) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return true // ExprStmt: result discarded entirely
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	return ok && id.Name == "_"
}
