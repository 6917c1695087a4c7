package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"charmgo/internal/analysis/framework"
)

// AtomicShared enforces one access discipline per variable: a variable
// or field whose address feeds a sync/atomic call at one site anywhere in
// the module must never be read or written plainly at another, in
// simulation scope (one dropped atomic silently breaks the pair). The
// module has no sync/atomic cell, so the rule guards against one coming
// back half-atomic. The check is syntactic: it needs the module's atomic
// sites, not the points-to solve.
var AtomicShared = &framework.Analyzer{
	Name: "atomicshared",
	Doc:  "a var or field accessed through sync/atomic anywhere must be accessed through sync/atomic everywhere",
	Run:  runAtomicShared,
}

func runAtomicShared(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	keys := atomicKeys(pass.Prog)
	if len(keys) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		atomicArgs := atomicArgRanges(pass, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanAtomicAccesses(pass, keys, fd.Body, atomicArgs)
			}
		}
	}
	return nil
}

// posRange is a source interval, inclusive at both ends.
type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return p >= r.lo && p <= r.hi }

// atomicKeys records (once per Run) the vars and fields whose address
// feeds a sync/atomic call anywhere in the module ("pkg.name" or
// "pkg.Type.field"), each with the positions of those calls.
func atomicKeys(prog *framework.Program) map[string][]token.Position {
	return prog.Memo("atomickeys", func() any {
		keys := make(map[string][]token.Position)
		for _, pkg := range prog.Pkgs {
			for _, f := range pkg.Syntax {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isAtomicCall(pkg.TypesInfo, call) {
						return true
					}
					for _, a := range call.Args {
						un, ok := a.(*ast.UnaryExpr)
						if !ok || un.Op != token.AND {
							continue
						}
						if key := addressedKey(pkg.TypesInfo, un.X); key != "" {
							keys[key] = append(keys[key], pkg.Fset.Position(a.Pos()))
						}
					}
					return true
				})
			}
		}
		return keys
	}).(map[string][]token.Position)
}

// isAtomicCall reports whether call invokes a sync/atomic function.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// addressedKey names the storage &x refers to: "pkg.name" for a
// package-level var, "pkg.Type.field" for a struct field.
func addressedKey(info *types.Info, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil &&
			!v.IsField() && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		return selectorFieldKey(info, x)
	}
	return ""
}

// selectorFieldKey resolves x.f to "pkg.Type.field" when f is a named
// struct field, "" otherwise.
func selectorFieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	return fieldKeyOfType(s.Recv(), sel.Sel.Name)
}

// fieldKeyOfType resolves "pkg.Type.field" for a named field of a (possibly
// pointer-to) named struct type; "" for synthetic cells and unnamed types.
func fieldKeyOfType(t types.Type, field string) string {
	if t == nil || field == "" || strings.HasPrefix(field, "$") {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// atomicArgRanges records the source ranges of `&x` arguments inside
// sync/atomic calls: accesses within them ARE the atomic discipline.
func atomicArgRanges(pass *framework.Pass, f *ast.File) []posRange {
	var out []posRange
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicCall(pass.TypesInfo, call) {
			return true
		}
		for _, a := range call.Args {
			if un, ok := a.(*ast.UnaryExpr); ok && un.Op == token.AND {
				out = append(out, posRange{lo: a.Pos(), hi: a.End()})
			}
		}
		return true
	})
	return out
}

func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if r.contains(p) {
			return true
		}
	}
	return false
}

// scanAtomicAccesses reports every plain access in body to a key that is
// accessed atomically elsewhere.
func scanAtomicAccesses(pass *framework.Pass, keys map[string][]token.Position,
	body *ast.BlockStmt, atomicArgs []posRange) {
	ast.Inspect(body, func(n ast.Node) bool {
		var key string
		var typ types.Type
		switch x := n.(type) {
		case *ast.SelectorExpr:
			key = selectorFieldKey(pass.TypesInfo, x)
			if obj, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
				typ = obj.Type()
			}
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && v.Pkg() != nil &&
				!v.IsField() && v.Parent() == v.Pkg().Scope() {
				key = v.Pkg().Path() + "." + v.Name()
				typ = v.Type()
			}
		default:
			return true
		}
		if key == "" {
			return true
		}
		if inRanges(atomicArgs, n.Pos()) || atomicTyped(typ) {
			// A sanctioned atomic access sanctions its whole base path:
			// atomic.AddUint64(&s.co.gen, 1) and s.co.live.Add(1) read the
			// backref pointer only to reach the atomic cell.
			return false
		}
		if sites, mixed := keys[key]; mixed {
			pass.Reportf(n.Pos(),
				"plain access to %s, which is accessed through sync/atomic elsewhere (%s): one discipline only",
				key, sites[0])
			return false
		}
		return true
	})
}

// atomicTyped reports whether a storage type comes from sync/atomic
// (atomic.Int64 and friends): atomic by construction.
func atomicTyped(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}
