package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"statcube/internal/lint"
)

// newErrwrap enforces the error taxonomy PR 3 built: sentinel errors
// (budget.ErrCanceled, context.Canceled, io.EOF, …) are matched with
// errors.Is, never ==/!=, because the engine deliberately wraps them
// (budget's cancelErr carries both ErrCanceled and the context error);
// and fmt.Errorf that carries an error must use %w so the chain stays
// matchable upstream. Three checks:
//
//   - binary ==/!= where both operands are errors (nil comparisons stay
//     legal) — identity comparison breaks on any wrapped error;
//   - switch statements whose tag is an error with error-typed cases —
//     the same comparison in disguise;
//   - fmt.Errorf with an error argument and no %w verb — the error's
//     identity is flattened into text and errors.Is stops working.
func newErrwrap() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "errwrap",
		Doc:  "compare sentinel errors with errors.Is and wrap causes with %w, never ==/!= or %v",
	}
	a.Run = func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// An `Is(error) bool` method is the errors.Is
					// protocol itself: identity comparison against the
					// sentinel it advertises is the correct contract
					// there, so comparisons inside it are exempt (the
					// other checks still apply).
					if isErrorsIsMethod(pass.Info, n) {
						walkWithoutCompareCheck(pass, n)
						return false
					}
				case *ast.BinaryExpr:
					checkErrCompare(pass, n)
				case *ast.SwitchStmt:
					checkErrSwitch(pass, n)
				case *ast.CallExpr:
					checkErrorfWrap(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isErrorsIsMethod reports whether fd is a method `Is(error) bool` — the
// hook errors.Is consults on wrapped errors.
func isErrorsIsMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Is" {
		return false
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	return sig.Params().Len() == 1 && isErrorType(sig.Params().At(0).Type()) &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// walkWithoutCompareCheck applies every errwrap check except the
// ==-comparison one to the subtree.
func walkWithoutCompareCheck(pass *lint.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			checkErrSwitch(pass, n)
		case *ast.CallExpr:
			checkErrorfWrap(pass, n)
		}
		return true
	})
}

func checkErrCompare(pass *lint.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if isUntypedNil(pass.Info, b.X) || isUntypedNil(pass.Info, b.Y) {
		return // err == nil / err != nil is the idiom, not a finding
	}
	xt, yt := pass.Info.Types[b.X], pass.Info.Types[b.Y]
	if isErrorType(xt.Type) && isErrorType(yt.Type) {
		pass.Reportf(b.OpPos, "errors compared with %s: use errors.Is so wrapped sentinels still match", b.Op)
	}
}

func checkErrSwitch(pass *lint.Pass, s *ast.SwitchStmt) {
	if s.Tag == nil {
		return
	}
	tv, ok := pass.Info.Types[s.Tag]
	if !ok || !isErrorType(tv.Type) {
		return
	}
	for _, stmt := range s.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if isUntypedNil(pass.Info, e) {
				continue
			}
			if et, ok := pass.Info.Types[e]; ok && isErrorType(et.Type) {
				pass.Reportf(e.Pos(), "switch compares errors by identity: use errors.Is so wrapped sentinels still match")
			}
		}
	}
}

func checkErrorfWrap(pass *lint.Pass, call *ast.CallExpr) {
	if !calleeFromPkg(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return // non-literal format: out of static reach
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if tv, ok := pass.Info.Types[arg]; ok && isErrorType(tv.Type) {
			pass.Reportf(arg.Pos(), "error formatted without %%w: the cause is flattened to text and errors.Is can no longer match it")
			return // one finding per call is enough
		}
	}
}
