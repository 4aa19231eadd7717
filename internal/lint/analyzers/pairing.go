package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"statcube/internal/lint"
	"statcube/internal/lint/cfg"
	"statcube/internal/lint/dataflow"
)

// The acquire/release pairing framework: ledgerleak, spanend and
// closeleak are all the same analysis with different vocabularies. A
// statement may acquire a resource (a budget reservation, a span, a file
// handle), bound to a variable and optionally to a sibling error whose
// non-nil branch means the acquisition never happened. The resource must
// then, on EVERY control-flow path to the function's exit, either be
// released (Release/End/Close, directly or via defer) or handed off —
// escape the function's ownership by being returned, passed as a call
// argument, assigned away, stored in a composite literal, sent on a
// channel, or captured by a function literal. A path that reaches exit
// with the resource still owned and unreleased is a leak, reported at
// the acquisition site.
//
// The engine is a forward may-analysis (internal/lint/dataflow) over the
// function's CFG (internal/lint/cfg). Known approximations, documented
// in DESIGN.md §6:
//
//   - releases match by the resource's bound object, not by aliasing: a
//     release through a second variable bound to the same handle is a
//     hand-off at the rebinding, which kills the fact anyway;
//   - a release of an unresolvable receiver kills every fact (wildcard)
//     rather than inventing a spurious leak;
//   - hand-off is syntactic: any mention of the resource in an argument,
//     return value, RHS, send or closure transfers ownership. Method
//     calls ON the resource (f.Read, sp.AddInt) are not hand-offs;
//   - a path that provably terminates (panic, os.Exit, log.Fatal*,
//     runtime.Goexit) is exempt — the process or a recover boundary owns
//     cleanup there;
//   - refinement understands the two-way `err != nil` / `err == nil`
//     split on the acquisition's own error variable; compound conditions
//     are not refined (facts survive both edges — the conservative,
//     may-leak direction).

// leakFact is one dataflow fact: a live acquisition, or a deferred
// release registered on this path.
type leakFact struct {
	// obj is the resource's bound object (variable or field); nil when
	// the acquisition is positional only (resource discarded or receiver
	// unresolvable), in which case only a wildcard release covers it.
	obj types.Object
	// amt, for ledgerleak, is the reserved-amount variable: its mention
	// in a later call is the hand-off that moves the reservation into a
	// ledger someone else drains.
	amt types.Object
	// errObj is the acquisition's sibling error variable: the branch
	// where it is non-nil kills the fact (the acquisition failed).
	errObj types.Object
	// pos is the acquisition site (or the defer site for deferred
	// facts) — the report anchor and the fact's identity.
	pos token.Pos
	// deferred marks a registered deferred release of obj (obj == nil:
	// a wildcard release covering every resource on this path).
	deferred bool
}

// acqSite is one acquisition found by the pre-pass, keyed by the
// statement node that performs it so the transfer function can map CFG
// nodes back to acquisitions.
type acqSite struct {
	fact leakFact
	desc string
}

// leakSpec is one analyzer's vocabulary over the shared engine.
type leakSpec struct {
	name string
	doc  string
	// acquire inspects one statement (AssignStmt, or ExprStmt for
	// result-discarding acquisitions) and returns its acquisitions.
	acquire func(pass *lint.Pass, stmt ast.Node) []acqSite
	// release classifies a call: released != nil names the resource
	// object the call releases; wildcard releases everything.
	release func(info *types.Info, call *ast.CallExpr) (released types.Object, wildcard bool)
}

// newLeakAnalyzer builds a path-sensitive analyzer from a spec.
func newLeakAnalyzer(spec *leakSpec) *lint.Analyzer {
	a := &lint.Analyzer{Name: spec.name, Doc: spec.doc}
	a.Run = func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			for _, fn := range functionsOf(f) {
				runLeakFunc(pass, spec, fn)
			}
		}
		return nil
	}
	return a
}

// functionsOf returns every function body in the file: declarations plus
// each function literal (closures are analyzed as functions in their own
// right; the engine treats them as opaque from the enclosing function).
func functionsOf(f *ast.File) []ast.Node {
	var fns []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fns = append(fns, n)
			}
		case *ast.FuncLit:
			fns = append(fns, n)
		}
		return true
	})
	return fns
}

// leakEngine is the per-function analysis state.
type leakEngine struct {
	pass *lint.Pass
	spec *leakSpec
	// acqs maps the CFG node performing an acquisition to its sites.
	acqs map[ast.Node][]acqSite
}

func runLeakFunc(pass *lint.Pass, spec *leakSpec, fn ast.Node) {
	e := &leakEngine{pass: pass, spec: spec, acqs: map[ast.Node][]acqSite{}}
	e.collectAcquisitions(fn)
	if len(e.acqs) == 0 {
		return // nothing acquired, nothing to leak
	}
	g := cfg.Build(fn)
	res := dataflow.Forward(g, dataflow.Problem[leakFact]{
		Transfer: e.transfer,
		Refine:   e.refine,
	})

	// A fact at exit leaks unless a deferred release on the same path
	// covers it.
	exit := res.AtExit()
	leaked := map[token.Pos]bool{}
	for fact := range exit {
		if fact.deferred {
			continue
		}
		if coveredByDefer(exit, fact) {
			continue
		}
		leaked[fact.pos] = true
	}
	if len(leaked) == 0 {
		return
	}
	// Report in source order via the collected sites (each site appears
	// once, so diagnostics are deterministic and deduplicated even when
	// both errObj variants of a fact reach exit).
	var sites []acqSite
	for _, list := range e.acqs {
		for _, s := range list {
			if leaked[s.fact.pos] {
				sites = append(sites, s)
			}
		}
	}
	for _, s := range sites {
		pass.Reportf(s.fact.pos, "%s is not released on every path to return (add a release, a defer, or hand ownership off)", s.desc)
	}
}

// coveredByDefer reports whether a deferred release in the same exit set
// covers the fact.
func coveredByDefer(exit dataflow.Set[leakFact], fact leakFact) bool {
	for d := range exit {
		if !d.deferred {
			continue
		}
		if d.obj == nil || (fact.obj != nil && d.obj == fact.obj) {
			return true
		}
	}
	return false
}

// collectAcquisitions pre-walks the function for acquisition statements:
// block statements plus if/for/switch inits. The walk does not descend
// into nested function literals — those are analyzed separately.
func (e *leakEngine) collectAcquisitions(fn ast.Node) {
	body := funcBody(fn)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			for _, st := range n.List {
				e.tryAcquire(st)
			}
		case *ast.IfStmt:
			if n.Init != nil {
				e.tryAcquire(n.Init)
			}
		case *ast.ForStmt:
			if n.Init != nil {
				e.tryAcquire(n.Init)
			}
		case *ast.SwitchStmt:
			if n.Init != nil {
				e.tryAcquire(n.Init)
			}
		}
		return true
	})
}

// tryAcquire records stmt's acquisitions.
func (e *leakEngine) tryAcquire(stmt ast.Stmt) {
	if sites := e.spec.acquire(e.pass, stmt); len(sites) > 0 {
		e.acqs[stmt] = sites
	}
}

// funcBody returns fn's body.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// transfer folds one CFG node into the fact set.
func (e *leakEngine) transfer(n ast.Node, facts dataflow.Set[leakFact]) {
	// Terminating paths (panic, os.Exit, log.Fatal*) are exempt: the
	// process — or the recover boundary — owns cleanup there.
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok && isTerminatorCall(call) {
			clear(facts)
			return
		}
	}

	if d, ok := n.(*ast.DeferStmt); ok {
		e.transferDefer(d, facts)
		return
	}

	// Releases and hand-offs anywhere in the node.
	e.walkKills(n, facts)

	// Error-variable redefinition: once the acquisition's error variable
	// is overwritten, the `err != nil` refinement no longer describes
	// the acquisition — drop the link (keep the fact).
	if redef := assignedObjs(e.pass.Info, n); len(redef) > 0 {
		for fact := range facts {
			if fact.errObj != nil && redef[fact.errObj] {
				facts.Delete(fact)
				fact.errObj = nil
				facts.Add(fact)
			}
		}
	}

	// Acquisitions recorded for this node.
	for _, s := range e.acqs[n] {
		facts.Add(s.fact)
	}
}

// transferDefer interprets a defer statement: a deferred release
// registers coverage for this path; a deferred closure registers every
// release inside it; any other mention of a tracked resource in the
// deferred call is a hand-off.
func (e *leakEngine) transferDefer(d *ast.DeferStmt, facts dataflow.Set[leakFact]) {
	if obj, wildcard := e.spec.release(e.pass.Info, d.Call); obj != nil || wildcard {
		facts.Add(leakFact{obj: obj, pos: d.Pos(), deferred: true})
		return
	}
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		// Releases inside the deferred closure count as deferred; other
		// resource mentions inside it are hand-offs.
		released := map[types.Object]bool{}
		wildcardRelease := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj, wc := e.spec.release(e.pass.Info, call); obj != nil {
					released[obj] = true
				} else if wc {
					wildcardRelease = true
				}
			}
			return true
		})
		if wildcardRelease {
			facts.Add(leakFact{pos: d.Pos(), deferred: true})
		}
		for obj := range released {
			facts.Add(leakFact{obj: obj, pos: d.Pos(), deferred: true})
		}
		mentioned := mentionedObjs(e.pass.Info, lit.Body)
		e.killMentioned(facts, func(o types.Object) bool { return mentioned[o] && !released[o] })
		return
	}
	// Plain deferred call: arguments are hand-offs (defer cleanup(f)).
	for _, arg := range d.Call.Args {
		m := mentionedObjs(e.pass.Info, arg)
		e.killMentioned(facts, func(o types.Object) bool { return m[o] })
	}
}

// walkKills applies releases and hand-offs found anywhere in n, without
// descending into function literals (any tracked resource a literal
// mentions is handed off to it wholesale).
func (e *leakEngine) walkKills(n ast.Node, facts dataflow.Set[leakFact]) {
	// A RangeStmt head node carries the whole loop; its body statements
	// live in their own CFG blocks, so only the ranged expression belongs
	// to this program point (walking the body here would apply its
	// releases before the loop even runs).
	if rs, ok := n.(*ast.RangeStmt); ok {
		n = rs.X
	}
	isAcq := len(e.acqs[n]) > 0
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			m := mentionedObjs(e.pass.Info, n.Body)
			e.killMentioned(facts, func(o types.Object) bool { return m[o] })
			return false
		case *ast.CallExpr:
			if obj, wildcard := e.spec.release(e.pass.Info, n); obj != nil || wildcard {
				e.kill(facts, obj, wildcard)
				return true
			}
			for _, arg := range n.Args {
				m := mentionedObjsNoRecv(e.pass.Info, arg)
				e.killMentioned(facts, func(o types.Object) bool { return m[o] })
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				m := mentionedObjsNoRecv(e.pass.Info, r)
				e.killMentioned(facts, func(o types.Object) bool { return m[o] })
			}
		case *ast.SendStmt:
			m := mentionedObjsNoRecv(e.pass.Info, n.Value)
			e.killMentioned(facts, func(o types.Object) bool { return m[o] })
		case *ast.AssignStmt:
			// A resource on the RHS is being rebound or stored — a
			// hand-off. The acquiring statement's own RHS is exempt
			// (it is the acquisition call; older same-named facts are
			// re-acquisitions handled by identity of position).
			if isAcq {
				return true
			}
			for _, rhs := range n.Rhs {
				m := mentionedObjsNoRecv(e.pass.Info, rhs)
				e.killMentioned(facts, func(o types.Object) bool { return m[o] })
			}
		}
		return true
	})
}

// kill removes acquisition facts for obj (or all, when wildcard).
func (e *leakEngine) kill(facts dataflow.Set[leakFact], obj types.Object, wildcard bool) {
	for fact := range facts {
		if fact.deferred {
			continue
		}
		if wildcard || (obj != nil && (fact.obj == obj || fact.obj == nil)) {
			facts.Delete(fact)
		}
	}
}

// killMentioned removes acquisition facts whose resource or amount
// object satisfies hit.
func (e *leakEngine) killMentioned(facts dataflow.Set[leakFact], hit func(types.Object) bool) {
	for fact := range facts {
		if fact.deferred {
			continue
		}
		if (fact.obj != nil && hit(fact.obj)) || (fact.amt != nil && hit(fact.amt)) {
			facts.Delete(fact)
		}
	}
}

// refine kills acquisitions on the branch where their own error variable
// is non-nil — the acquisition failed there, so there is nothing to
// release.
func (e *leakEngine) refine(cond ast.Expr, val bool, facts dataflow.Set[leakFact]) {
	obj, isNeq := errNilCheck(e.pass.Info, cond)
	if obj == nil {
		return
	}
	errIsNonNil := (isNeq && val) || (!isNeq && !val)
	if !errIsNonNil {
		return
	}
	for fact := range facts {
		if !fact.deferred && fact.errObj == obj {
			facts.Delete(fact)
		}
	}
}

// errNilCheck recognizes `X != nil` (isNeq true) and `X == nil` where X
// resolves to an error-typed object, returning that object.
func errNilCheck(info *types.Info, cond ast.Expr) (obj types.Object, isNeq bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return nil, false
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isUntypedNil(info, y) {
		// keep x
	} else if isUntypedNil(info, x) {
		x = y
	} else {
		return nil, false
	}
	o := exprObj(info, x)
	if o == nil || !isErrorType(o.Type()) {
		return nil, false
	}
	return o, b.Op == token.NEQ
}

// exprObj resolves an ident or a selector's field to its object.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// mentionedObjs collects every object used by identifiers in the
// subtree (function literals included — a capture is a mention).
func mentionedObjs(info *types.Info, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				out[o] = true
			}
		}
		return true
	})
	return out
}

// mentionedObjsNoRecv is mentionedObjs minus objects whose every mention
// sits in the receiver chain of a method call: `return f.Name()` reads a
// property of f, it does not transfer ownership, so the leak fact must
// survive. An object also appearing outside a receiver position
// (`use(f)`, `return f`, `f.Read(buf)` as an argument `use(f.Read(buf))`
// still mentions buf, not f, in arg position) counts as handed off as
// before. Method-value hand-offs (`return f.Close` with no call) are not
// receiver positions and still kill.
func mentionedObjsNoRecv(info *types.Info, n ast.Node) map[types.Object]bool {
	total := map[types.Object]int{}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				total[o]++
			}
		}
		return true
	})
	recv := map[types.Object]int{}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, _ := info.Uses[sel.Sel].(*types.Func)
		if f == nil || !isMethod(f) {
			return true
		}
		// Credit each ident along a pure ident/selector receiver chain;
		// receivers containing calls or indexing are left to the normal
		// mention count.
		x := ast.Unparen(sel.X)
	chain:
		for {
			switch e := x.(type) {
			case *ast.Ident:
				if o := info.Uses[e]; o != nil {
					recv[o]++
				}
				break chain
			case *ast.SelectorExpr:
				if o := info.Uses[e.Sel]; o != nil {
					recv[o]++
				}
				x = ast.Unparen(e.X)
			default:
				break chain
			}
		}
		return true
	})
	out := map[types.Object]bool{}
	for o, c := range total {
		if c > recv[o] {
			out[o] = true
		}
	}
	return out
}

// assignedObjs collects the objects (re)defined by n's assignment
// targets — AssignStmt LHS idents and RangeStmt key/value idents.
func assignedObjs(info *types.Info, n ast.Node) map[types.Object]bool {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.RangeStmt:
		if n.Key != nil {
			targets = append(targets, n.Key)
		}
		if n.Value != nil {
			targets = append(targets, n.Value)
		}
	default:
		return nil
	}
	out := map[types.Object]bool{}
	for _, t := range targets {
		if id, ok := ast.Unparen(t).(*ast.Ident); ok {
			if o := info.Defs[id]; o != nil {
				out[o] = true
			} else if o := info.Uses[id]; o != nil {
				out[o] = true
			}
		}
	}
	return out
}

// isTerminatorCall mirrors cfg's terminator set for the transfer
// function (the CFG already routes these to exit; killing the facts here
// keeps terminated paths out of the leak report).
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// acquireBinding resolves the common acquisition shapes shared by the
// specs: for `res, err := call(...)` style statements it returns the
// bound resource object at LHS index 0 and the error object (last LHS
// when error-typed). ok is false when stmt is not an assignment whose
// RHS is the given call.
func acquireBinding(info *types.Info, stmt ast.Node, call *ast.CallExpr) (res, errObj types.Object, ok bool) {
	as, isAssign := stmt.(*ast.AssignStmt)
	if !isAssign || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call {
		return nil, nil, false
	}
	if len(as.Lhs) > 0 {
		res = lhsObj(info, as.Lhs[0])
	}
	if last := as.Lhs[len(as.Lhs)-1]; len(as.Lhs) > 1 {
		if o := lhsObj(info, last); o != nil && isErrorType(o.Type()) {
			errObj = o
		}
	} else if o := lhsObj(info, as.Lhs[0]); o != nil && isErrorType(o.Type()) {
		// Single LHS which IS the error (ledgerleak's err := Reserve).
		res, errObj = nil, o
	}
	return res, errObj, true
}

// lhsObj resolves an assignment target ident to its object (nil for
// blank or non-ident targets).
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// singleCall extracts the lone call of an assignment or expression
// statement.
func singleCall(stmt ast.Node) *ast.CallExpr {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if c, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				return c
			}
		}
	case *ast.ExprStmt:
		if c, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			return c
		}
	}
	return nil
}
