package analyzers

import (
	"go/ast"
	"go/types"

	"statcube/internal/lint"
)

// closeleak: OS-level resources — files (os.Open/Create/OpenFile/
// CreateTemp, the snapshot store's temp-file pattern), network
// listeners/conns (net.Listen/Dial) and HTTP response bodies (http.Get
// and friends, (*http.Client).Do) — must be closed on every path, or
// handed off. File descriptors are the one resource the Go runtime will
// not reclaim promptly for us; the snapshot store and statload harness
// both open files in loops, where a leaked-on-early-return descriptor
// becomes an EMFILE under sustained load.
func newCloseleak() *lint.Analyzer {
	return newLeakAnalyzer(&leakSpec{
		name:    "closeleak",
		doc:     "files, conns and response bodies must be closed (or handed off) on every path",
		acquire: closeAcquire,
		release: closeRelease,
	})
}

func closeAcquire(pass *lint.Pass, stmt ast.Node) []acqSite {
	call := singleCall(stmt)
	if call == nil {
		return nil
	}
	kind := closerKind(pass.Info, call)
	if kind == "" {
		return nil
	}
	fact := leakFact{pos: call.Pos()}
	if res, errObj, ok := acquireBinding(pass.Info, stmt, call); ok {
		fact.errObj = errObj
		if res == nil {
			if !blankResult(stmt) {
				return nil // stored into a field/map: ownership handed off
			}
		} else {
			fact.obj = res
		}
	}
	return []acqSite{{fact: fact, desc: kind}}
}

// closeRelease recognizes X.Close() — keyed on X's object — and
// resp.Body.Close(), keyed on resp, so a response fact is released by
// closing its body.
func closeRelease(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != "Close" || !isMethod(f) {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, true
	}
	recv := ast.Unparen(sel.X)
	if inner, ok := recv.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
		if o := exprObj(info, inner.X); o != nil {
			return o, false
		}
	}
	if o := exprObj(info, recv); o != nil {
		return o, false
	}
	return nil, true // Close on an unresolvable receiver: covers everything
}

// closerKind classifies an acquisition call, returning a human label or
// "" when the call does not acquire a tracked resource.
func closerKind(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	if isMethod(f) {
		if f.Pkg().Path() == "net/http" && f.Name() == "Do" && recvTypeName(f) == "Client" {
			return "http response"
		}
		return ""
	}
	switch f.Pkg().Path() {
	case "os":
		switch f.Name() {
		case "Open", "Create", "OpenFile", "CreateTemp":
			return "file (os." + f.Name() + ")"
		}
	case "net":
		switch f.Name() {
		case "Listen", "Dial":
			return "net conn (net." + f.Name() + ")"
		}
	case "net/http":
		switch f.Name() {
		case "Get", "Head", "Post", "PostForm":
			return "http response"
		}
	}
	return ""
}
