package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"charmgo/internal/analysis/framework"
)

// CloseChain verifies that construction-time resources are released when
// their owner is closed, so experiment suites can cycle machines without
// accumulating slabs (DESIGN.md "Ownership rules", mem.SlabCache):
//
//   - Rule A (slab fields): a struct field assigned from mem.SlabCache.Get
//     or from a //simlint:acquire call must be passed to mem.SlabCache.Put
//     or a //simlint:release call inside a function reachable from the
//     owning type's Close. A type that acquires slab state but has no
//     Close at all is reported at the acquire site.
//   - Rule B (owned closers): a struct field the type constructs itself
//     (assigned from a call's result) whose type has a Close method must
//     have that Close reachable from the owner's Close. Fields merely
//     borrowed — stored from a parameter or another variable — carry no
//     obligation, which is how "the network outlives the machine" stays
//     legal without annotation.
//
// mem.FreeList fields need no Close: free lists are leak-counted value
// pools that die with their owner. Interface-typed fields are skipped
// (the dynamic type cannot be resolved; the concrete layer's own Close
// is checked where it is declared). Reachability uses the whole-program
// call graph, so Close helpers and cross-package releases both count.
var CloseChain = &framework.Analyzer{
	Name: "closechain",
	Doc: "require slab acquires stored in struct fields, and Close-bearing values " +
		"the struct constructs, to be released by a function reachable from the " +
		"owner's Close",
	Run: runCloseChain,
}

func runCloseChain(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}

	// fieldDuty is one obligation attached to a struct field.
	type fieldDuty struct {
		owner *types.Named // type whose field carries the duty
		field *types.Var
		pos   token.Pos   // acquire/construction site, for reporting
		closs *types.Func // Rule B: the field type's Close; nil for Rule A
	}
	var duties []fieldDuty
	// released[field] = IDs of functions that pass the field to a release.
	released := make(map[*types.Var]map[string]bool)

	// fieldOf resolves a selector to (owning named type, field var).
	fieldOf := func(sel *ast.SelectorExpr) (*types.Named, *types.Var) {
		v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return nil, nil
		}
		t := pass.TypesInfo.Types[sel.X].Type
		if t == nil {
			return nil, nil
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != pass.Pkg {
			return nil, nil // only types declared in this package are audited here
		}
		return named, v
	}

	// closeOf returns the Close method declared on named, if any.
	closeOf := func(named *types.Named) *types.Func {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == "Close" {
				return m
			}
		}
		return nil
	}

	// ownedCloser classifies a construction RHS for Rule B: a direct call
	// whose result type is a named (or pointer-to-named) in-module struct
	// with a Close method.
	ownedCloser := func(rhs ast.Expr) *types.Func {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || poolOp(pass, call) != "" {
			return nil
		}
		t := pass.TypesInfo.Types[call].Type
		if t == nil {
			return nil
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return nil
		}
		return closeOf(named)
	}

	isSlabAcquire := func(rhs ast.Expr) bool {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || poolOp(pass, call) != "acquire" {
			return false
		}
		// FreeList.Get results are per-message descriptors (poolleak's
		// domain); slab acquires return slabs/slices or annotated state.
		if fn := calleeOf(pass.TypesInfo, call); fn != nil {
			if recv := recvNamed(fn); recv != nil && recv.Obj().Name() == "FreeList" {
				return false
			}
		}
		return true
	}

	recordAssign := func(lhs, rhs ast.Expr) {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		owner, field := fieldOf(sel)
		if owner == nil {
			return
		}
		if isSlabAcquire(rhs) {
			duties = append(duties, fieldDuty{owner: owner, field: field, pos: rhs.Pos()})
			return
		}
		if cl := ownedCloser(rhs); cl != nil {
			duties = append(duties, fieldDuty{owner: owner, field: field, pos: rhs.Pos(), closs: cl})
		}
	}

	// Composite literals with keyed fields construct state too:
	// &T{f: slabs.Get(n)}.
	recordComposite := func(cl *ast.CompositeLit) {
		t := pass.TypesInfo.Types[cl].Type
		if t == nil {
			return
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != pass.Pkg {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			var field *types.Var
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == key.Name {
					field = st.Field(i)
					break
				}
			}
			if field == nil {
				continue
			}
			if isSlabAcquire(kv.Value) {
				duties = append(duties, fieldDuty{owner: named, field: field, pos: kv.Value.Pos()})
			} else if cls := ownedCloser(kv.Value); cls != nil {
				duties = append(duties, fieldDuty{owner: named, field: field, pos: kv.Value.Pos(), closs: cls})
			}
		}
	}

	// Scan every declared function for field constructions, releases, and
	// Close calls on fields.
	calledOnField := make(map[*types.Var]map[string]bool) // field -> funcs calling field.Close()
	for _, fi := range pass.Functions() {
		if fi.Decl == nil {
			continue // literals are part of their enclosing declaration
		}
		fnID := framework.FuncID(fi.Obj())
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						recordAssign(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				recordComposite(n)
			case *ast.CallExpr:
				if poolOp(pass, n) == "release" {
					for _, a := range n.Args {
						if sel, ok := a.(*ast.SelectorExpr); ok {
							if _, field := fieldOf(sel); field != nil {
								if released[field] == nil {
									released[field] = make(map[string]bool)
								}
								released[field][fnID] = true
							}
						}
					}
				}
				// field.Close() and method-value references resolve through
				// the call graph: n.Fun's Close shows up in Reachable.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
					if inner, ok := sel.X.(*ast.SelectorExpr); ok {
						if _, field := fieldOf(inner); field != nil {
							if calledOnField[field] == nil {
								calledOnField[field] = make(map[string]bool)
							}
							calledOnField[field][fnID] = true
						}
					}
				}
			}
			return true
		})
	}

	// Verdicts, deduplicated per (field, rule) and ordered by position.
	type key struct {
		field *types.Var
		ruleB bool
	}
	seen := make(map[key]bool)
	reach := make(map[*types.Named]map[string]bool)
	reachable := func(owner *types.Named) (map[string]bool, *types.Func) {
		cl := closeOf(owner)
		if cl == nil {
			return nil, nil
		}
		if r, ok := reach[owner]; ok {
			return r, cl
		}
		r := pass.Prog.Reachable(cl)
		reach[owner] = r
		return r, cl
	}
	sort.Slice(duties, func(i, j int) bool { return duties[i].pos < duties[j].pos })
	for _, d := range duties {
		k := key{field: d.field, ruleB: d.closs != nil}
		if seen[k] {
			continue
		}
		seen[k] = true
		r, ownerClose := reachable(d.owner)
		if ownerClose == nil {
			pass.Reportf(d.pos,
				"%s.%s acquires construction state here but %s has no Close to release it",
				d.owner.Obj().Name(), d.field.Name(), d.owner.Obj().Name())
			continue
		}
		if d.closs == nil {
			ok := false
			for fnID := range released[d.field] {
				if r[fnID] {
					ok = true
					break
				}
			}
			if !ok {
				pass.Reportf(d.pos,
					"slab stored in %s.%s is never released (SlabCache.Put or "+
						"//simlint:release) by a function reachable from %s.Close",
					d.owner.Obj().Name(), d.field.Name(), d.owner.Obj().Name())
			}
			continue
		}
		// Rule B: the field type's Close must be reachable from the
		// owner's Close — either through the call graph (direct call,
		// helper) or via an explicit field.Close() call in a reachable
		// function.
		ok := r[framework.FuncID(d.closs)]
		if !ok {
			for fnID := range calledOnField[d.field] {
				if r[fnID] {
					ok = true
					break
				}
			}
		}
		if !ok {
			pass.Reportf(d.pos,
				"%s.%s is constructed by %s but its Close is not reachable from %s.Close",
				d.owner.Obj().Name(), d.field.Name(), d.owner.Obj().Name(), d.owner.Obj().Name())
		}
	}
	return nil
}
