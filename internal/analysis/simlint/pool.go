package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"charmgo/internal/analysis/framework"
)

// This file is the pool-ownership typestate behind the poolleak and
// useafterrelease analyzers: one framework.Machine, run per function by
// one memoized framework.Typestate, over every local variable that some
// acquire in the function targets. DESIGN.md §6 "Ownership rules"
// documents the vocabulary; mem.FreeList / mem.SlabCache document the
// acquire/release surface.
//
// Acquire sites (the variable is born owned):
//   - x := pool.Get()            for a mem.FreeList or mem.SlabCache
//   - x := f(...)                where f is annotated //simlint:acquire
//   - x := v.(*T) / case *T:     where *T is pooled in this package
//     (T appears as a type argument of a mem.FreeList declared here)
//   - p, ok := m[k]; delete(m,k) map lookup binds p to the entry; the
//     delete makes p the sole owner (lookup without delete stays a borrow)
//
// Release sites: pool.Put(x) or a call annotated //simlint:release.
//
// Ownership transfers (obligation handed off): passing the variable as a
// call argument, storing it into a field/map/slice/composite/global,
// returning it, sending it on a channel, capturing it in a closure, or
// taking its address. Panic paths are exempt (CFG routes them to
// PanicExit). Records are keyed by *types.Var: the analysis is per local
// and intraprocedural.

// poolMachine declares one variable's ownership protocol:
//
//	free  --acquire--> owned   --release--> released
//	free  --bind-----> bound   --delete---> owned (the entry left its map)
//	owned, bound --transfer--> moved;  bound --release--> released
//
// free (never acquired, or rebound to a non-pooled value) and moved
// carry no obligation, so transfer and release loop there; use loops on
// every state except released, and delete on every state except bound.
// Owned is the one state a record may not be in at function exit.
func poolMachine() *framework.Machine[string] {
	m := framework.NewMachine("pool", "free").
		Rule("free", "acquire", "owned").
		Rule("free", "bind", "bound").
		Rule("bound", "delete", "owned").
		Accept("free", "bound", "moved", "released")
	for _, s := range []string{"owned", "bound"} {
		m.Rule(s, "transfer", "moved").Rule(s, "release", "released")
	}
	for _, s := range []string{"free", "moved"} {
		m.Rule(s, "transfer", s).Rule(s, "release", s)
	}
	for _, s := range []string{"free", "owned", "bound", "moved"} {
		m.Rule(s, "use", s)
	}
	for _, s := range []string{"free", "owned", "moved", "released"} {
		m.Rule(s, "delete", s)
	}
	return m
}

// poolEngine builds (once per Run) the ownership typestate both
// analyzers share.
func poolEngine(pass *framework.Pass) *framework.Typestate[string] {
	return pass.Prog.Memo("pool-engine", func() any {
		scans := make(map[*framework.FuncInfo]*poolScan)
		return &framework.Typestate[string]{
			Machine:  poolMachine(),
			Analyzer: pass.Analyzer,
			Prog:     pass.Prog,
			Classify: func(fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
				s := scans[fi]
				if s == nil {
					s = newPoolScan(fi)
					scans[fi] = s
				}
				s.emit = emit
				s.node(n)
			},
		}
	}).(*framework.Typestate[string])
}

// poolViolations runs the ownership machine over every non-test function
// of an in-scope package, handing each violation and its variable's
// name to report.
func poolViolations(pass *framework.Pass, report func(v framework.TsViolation, name string)) {
	if !simulationScope(pass.PkgPath) {
		return
	}
	ts := poolEngine(pass)
	for _, fi := range pass.Functions() {
		if isTestFile(pass, fi.Pos()) {
			continue
		}
		for _, v := range ts.Analyze(fi, nil, nil) {
			report(v, v.Key.(*types.Var).Name())
		}
	}
}

// pooledElems collects the element types T pooled through a
// mem.FreeList[T] declared in this package (struct fields or package
// vars): values of type *T circulate through Get/Put, so type assertions
// and map entries of those types carry ownership.
func pooledElems(pass *framework.Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	add := func(t types.Type) {
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "FreeList" ||
			named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "mem" {
			return
		}
		if args := named.TypeArgs(); args != nil && args.Len() == 1 {
			if elem, ok := args.At(0).(*types.Named); ok {
				out[elem.Obj()] = true
			}
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					add(st.Field(i).Type())
				}
			}
		case *types.Var:
			add(obj.Type())
		}
	}
	return out
}

// calleeOf resolves the declared function a call invokes (nil for
// builtins, function values, and calls it cannot see through).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvNamed returns the named receiver type of a method (nil otherwise).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// poolMethod names the mem.FreeList / mem.SlabCache method a call
// invokes ("Get", "Put", ...), or "" for any other callee. It is the
// one definition of a pool operation: the ownership machine and
// flightlifecycle's retirement verb both read it.
func poolMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil {
		return ""
	}
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Name() != "mem" {
		return ""
	}
	switch recv.Obj().Name() {
	case "FreeList", "SlabCache":
		return fn.Name()
	}
	return ""
}

// poolOp classifies a call's effect on ownership: "acquire" (pool Get,
// SlabCache.GetDirty, //simlint:acquire), "release" (pool Put,
// //simlint:release), or "".
func poolOp(pass *framework.Pass, call *ast.CallExpr) string {
	switch poolMethod(pass.TypesInfo, call) {
	case "Get", "GetDirty":
		return "acquire"
	case "Put":
		return "release"
	}
	if fn := calleeOf(pass.TypesInfo, call); fn != nil {
		for _, verb := range []string{"acquire", "release"} {
			if pass.Prog.FuncAnnotated(fn, verb) {
				return verb
			}
		}
	}
	return ""
}

// localVar resolves an assignment target to a trackable local variable
// (nil for blank, fields, and non-identifier targets).
func localVar(pass *framework.Pass, x ast.Expr) *types.Var {
	id, ok := x.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// exprObj resolves a map expression (identifier or field selector) to a
// stable object, so a lookup and a later delete on the same map correlate.
func exprObj(pass *framework.Pass, x ast.Expr) types.Object {
	switch x := x.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[x]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[x.Sel]
	}
	return nil
}

// poolScan is the ownership classifier of one function. A first walk
// over the whole body (newPoolScan) records which variables some acquire
// or bind targets and which pooled-element map each was bound from;
// later walks over single CFG nodes emit the machine's operations.
type poolScan struct {
	pass   *framework.Pass
	pooled map[*types.TypeName]bool
	emit   func(framework.TsOp)

	owners map[*types.Var]bool           // targets of some acquire or bind
	bound  map[types.Object][]*types.Var // pooled-element map -> locals bound from it
}

func newPoolScan(fi *framework.FuncInfo) *poolScan {
	s := &poolScan{
		pass:   fi.Pass,
		pooled: pooledElems(fi.Pass),
		emit:   func(framework.TsOp) {},
		owners: make(map[*types.Var]bool),
		bound:  make(map[types.Object][]*types.Var),
	}
	s.walk(fi.Body())
	return s
}

// op emits verb for v; variables that never held a pooled value have no
// cell, so the engine ignores their uses.
func (s *poolScan) op(v *types.Var, verb string, pos token.Pos) {
	if v != nil {
		s.emit(framework.TsOp{Key: v, Verb: verb, Pos: pos})
	}
}

// ident resolves a variable reference (nil otherwise).
func (s *poolScan) ident(id *ast.Ident) *types.Var {
	v, _ := s.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// pooledPtr reports whether t is *T for a T pooled in this package.
func (s *poolScan) pooledPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && s.pooled[named.Obj()]
}

// node classifies one CFG block node, honoring the block granularity
// contract: a RangeStmt stands for its header, a type-switch CaseClause
// for its per-case binding.
func (s *poolScan) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.X, n.Key, n.Value} {
			s.walk(e)
		}
	case *ast.CaseClause:
		s.caseBinding(n)
	default:
		s.walk(n)
	}
}

// caseBinding acquires a type-switch clause's binding of a pooled type.
func (s *poolScan) caseBinding(n *ast.CaseClause) {
	if v, ok := s.pass.TypesInfo.Implicits[n].(*types.Var); ok && s.pooledPtr(v.Type()) {
		s.born(v, "acquire", n.Pos(), nil)
	}
}

// born starts a fresh record for v, acquired or (verb "bind") bound from
// the pooled-element map m.
func (s *poolScan) born(v *types.Var, verb string, pos token.Pos, m types.Object) {
	s.owners[v] = true
	if m != nil && !slices.Contains(s.bound[m], v) {
		s.bound[m] = append(s.bound[m], v)
	}
	s.emit(framework.TsOp{Key: v, Birth: true, Pos: pos})
	s.op(v, verb, pos)
}

// walk descends a node, handling every ownership-relevant construct and
// recursing generically through the rest; any other variable reference
// is a use.
func (s *poolScan) walk(root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			s.op(s.ident(n), "use", n.Pos())
		case *ast.AssignStmt:
			s.assign(n)
			return false
		case *ast.ValueSpec:
			s.valueSpec(n)
			return false
		case *ast.CallExpr:
			s.call(n)
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				s.transferOrWalk(r)
			}
			return false
		case *ast.SendStmt:
			s.walk(n.Chan)
			s.transferOrWalk(n.Value)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					s.walk(kv.Key)
					el = kv.Value
				}
				s.transferOrWalk(el)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				s.transferOrWalk(n.X)
				return false
			}
		case *ast.FuncLit:
			// The closure may keep or release anything it captures.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					s.op(s.ident(id), "transfer", id.Pos())
				}
				return true
			})
			return false
		case *ast.CaseClause:
			// Reached only by newPoolScan's whole-body walk.
			s.caseBinding(n)
		}
		return true
	})
}

// transferOrWalk treats a bare variable as an ownership transfer;
// anything else is scanned for nested effects.
func (s *poolScan) transferOrWalk(x ast.Expr) {
	if id, ok := x.(*ast.Ident); ok {
		s.op(s.ident(id), "transfer", id.Pos())
		return
	}
	s.walk(x)
}

func (s *poolScan) assign(n *ast.AssignStmt) {
	switch {
	case len(n.Lhs) == len(n.Rhs):
		for i := range n.Rhs {
			s.assignPair(n.Lhs[i], n.Rhs[i])
		}
	case len(n.Rhs) == 1:
		// Multi-value form: comma-ok acquires bind Lhs[0]; the extra
		// targets (ok / multi-return results) are plain overwrites.
		s.assignPair(n.Lhs[0], n.Rhs[0])
		for _, l := range n.Lhs[1:] {
			s.rebind(l)
		}
	}
}

func (s *poolScan) valueSpec(n *ast.ValueSpec) {
	switch {
	case len(n.Values) == len(n.Names):
		for i := range n.Values {
			s.assignPair(n.Names[i], n.Values[i])
		}
	case len(n.Values) == 1:
		s.assignPair(n.Names[0], n.Values[0])
	}
}

func (s *poolScan) assignPair(lhs, rhs ast.Expr) {
	if verb, m := s.source(rhs); verb != "" {
		if v := localVar(s.pass, lhs); v != nil {
			s.born(v, verb, rhs.Pos(), m)
			return
		}
		// Acquire stored straight into a field/map/slice: ownership lives
		// in the containing object (closechain's domain, not a leak here).
		s.walk(lhs)
		return
	}
	s.transferOrWalk(rhs)
	s.rebind(lhs)
}

// rebind handles an assignment target that receives a non-pooled value:
// a tracked variable starts a fresh record in the start state. The
// record carries no position, so on a join the other path's acquire
// site names it.
func (s *poolScan) rebind(lhs ast.Expr) {
	if v := localVar(s.pass, lhs); v != nil {
		if s.owners[v] {
			s.emit(framework.TsOp{Key: v, Birth: true})
		}
		return
	}
	s.walk(lhs)
}

// source classifies an assignment RHS as an ownership source: "acquire",
// or "bind" with the pooled-element map looked up. Its operands are
// walked for uses; a non-source RHS is left to the caller.
func (s *poolScan) source(rhs ast.Expr) (verb string, m types.Object) {
	info := s.pass.TypesInfo
	switch rhs := rhs.(type) {
	case *ast.CallExpr:
		if poolOp(s.pass, rhs) == "acquire" {
			s.walk(rhs.Fun)
			for _, a := range rhs.Args {
				s.walk(a)
			}
			return "acquire", nil
		}
	case *ast.TypeAssertExpr:
		// Type == nil is x.(type) heading a type switch: the per-case
		// bindings are the acquires.
		if rhs.Type != nil && s.pooledPtr(info.Types[rhs.Type].Type) {
			s.walk(rhs.X)
			return "acquire", nil
		}
	case *ast.IndexExpr:
		if t := info.Types[rhs.X].Type; t != nil {
			if mt, ok := t.Underlying().(*types.Map); ok && s.pooledPtr(mt.Elem()) {
				if m := exprObj(s.pass, rhs.X); m != nil {
					s.walk(rhs.X)
					s.walk(rhs.Index)
					return "bind", m
				}
			}
		}
	}
	return "", nil
}

func (s *poolScan) call(n *ast.CallExpr) {
	if id, ok := n.Fun.(*ast.Ident); ok {
		if b, ok := s.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "delete" && len(n.Args) == 2 {
				// The entry leaves the map: every variable bound from it
				// now owns its record, which is named from here on.
				s.walk(n.Args[1])
				for _, v := range s.bound[exprObj(s.pass, n.Args[0])] {
					s.emit(framework.TsOp{Key: v, Verb: "delete", Pos: n.Pos(), Restamp: true})
				}
				return
			}
			// Other builtins (append, panic, print...) take pooled
			// arguments like ordinary calls; len/cap cannot take one.
			for _, a := range n.Args {
				s.transferOrWalk(a)
			}
			return
		}
	}
	verb := poolOp(s.pass, n)
	s.walk(n.Fun)
	for _, a := range n.Args {
		if id, ok := a.(*ast.Ident); ok && verb == "release" {
			s.op(s.ident(id), "release", id.Pos())
			continue
		}
		s.transferOrWalk(a)
	}
}
