package analyzers

import (
	"go/ast"
	"go/types"

	"statcube/internal/lint"
)

// ledgerleak: every budget.Governor.Reserve must be balanced by a
// Release — or hand the reservation off — on every path out of the
// function. An unbalanced path strands cells in the admission ledger
// until the process restarts, which slowly chokes query admission (the
// exact bug class PR 2's manual audit fixed once; this keeps it fixed).
//
// Hand-off forms the analyzer recognizes: the governor escaping into a
// call/return/closure, or the reserved AMOUNT variable being passed on
// (the accountant pattern in internal/cube: gov.Reserve(b) followed by
// a.reserved.Add(b) moves the reservation into a ledger that a later
// close() drains wholesale). AddCells is intentionally out of scope —
// cube cell accounting is released wholesale by design, not per call.
func newLedgerleak() *lint.Analyzer {
	return newLeakAnalyzer(&leakSpec{
		name:    "ledgerleak",
		doc:     "budget.Governor.Reserve must reach Release or a hand-off on every path",
		acquire: ledgerAcquire,
		release: ledgerRelease,
	})
}

func ledgerAcquire(pass *lint.Pass, stmt ast.Node) []acqSite {
	call := singleCall(stmt)
	if call == nil {
		return nil
	}
	recv := governorMethodRecv(pass.Info, call, "Reserve")
	if recv == nil {
		return nil
	}
	fact := leakFact{obj: exprObj(pass.Info, recv), pos: call.Pos()}
	if len(call.Args) == 1 {
		fact.amt = exprObj(pass.Info, call.Args[0])
	}
	if _, errObj, ok := acquireBinding(pass.Info, stmt, call); ok {
		fact.errObj = errObj
	}
	return []acqSite{{fact: fact, desc: "budget reservation (Governor.Reserve)"}}
}

func ledgerRelease(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	recv := governorMethodRecv(info, call, "Release")
	if recv == nil {
		return nil, false
	}
	if o := exprObj(info, recv); o != nil {
		return o, false
	}
	return nil, true // Release through an unresolvable receiver: covers everything
}

// governorMethodRecv returns the receiver expression when call invokes
// the named method on internal/budget's Governor, else nil.
func governorMethodRecv(info *types.Info, call *ast.CallExpr, name string) ast.Expr {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != name || !isMethod(f) || f.Pkg() == nil ||
		!pathHasSuffix(f.Pkg().Path(), "internal/budget") || recvTypeName(f) != "Governor" {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// recvTypeName returns the name of a method's receiver named type
// (pointer-stripped), or "".
func recvTypeName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
