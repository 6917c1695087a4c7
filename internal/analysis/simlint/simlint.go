// Package simlint is the repository's determinism-and-kernel-discipline
// linter. The paper's results are virtual-time measurements, so the whole
// reproduction rests on the simulator being deterministic: the same
// experiment must yield bit-identical time series on every run. Go makes
// that easy to break silently — wall-clock reads, the global math/rand
// source, map iteration order, stray goroutines — and on breaching the
// PR 1 kernel boundary (all NIC booking through internal/gemini's
// engines). Each analyzer here pins one of those invariants; DESIGN.md
// "Determinism rules" documents the contract and the `//simlint:`
// annotation grammar.
//
// Run via `go run ./cmd/simlint ./...` or `make lint`.
package simlint

import (
	"go/ast"
	"go/types"
	"strings"

	"charmgo/internal/analysis/framework"
)

// Analyzers returns the full suite of fourteen in stable order: the five
// determinism analyzers from PR 2, the four ownership analyzers built on
// the CFG/dataflow engine (framework/cfg.go, dataflow.go, callgraph.go),
// atomicshared (one access discipline per atomically accessed var or
// field), then the protoflow family built on the interprocedural
// typestate engine (framework/typestate.go) that proves the machine
// layers' resource protocols — credit conservation, flight lifecycles,
// event-dispatch totality, bounded retry.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		NoWallClock,
		NoGlobalRand,
		MapOrder,
		NoGoroutine,
		BookViaKernel,
		PoolLeak,
		UseAfterRelease,
		HotPathAlloc,
		CloseChain,
		AtomicShared,
		CreditBalance,
		FlightLifecycle,
		EventTotality,
		BoundedRetry,
	}
}

// module is the import-path root all scope rules are phrased against.
// Fixture packages use the same paths, so scoping behaves identically
// under analysistest.
const module = "charmgo"

// rel reports the module-relative package path ("" for the root package,
// "internal/sim" for charmgo/internal/sim). External test packages share
// the scope of the package they test.
func rel(pkgPath string) string {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	if pkgPath == module {
		return ""
	}
	return strings.TrimPrefix(pkgPath, module+"/")
}

// under reports whether the module-relative path lies in any of the roots.
func under(rel string, roots ...string) bool {
	for _, r := range roots {
		if rel == r || strings.HasPrefix(rel, r+"/") {
			return true
		}
	}
	return false
}

// simulationScope reports whether a package is simulation code proper:
// the root runtime facade plus everything under internal/, minus the
// experiment harness (internal/bench — it may time wall clocks) and the
// analysis tooling itself.
func simulationScope(pkgPath string) bool {
	r := rel(pkgPath)
	if r == "" {
		return true
	}
	return under(r, "internal") && !under(r, "internal/bench", "internal/analysis")
}

// isTestFile reports whether the file holding pos is a _test.go file;
// test harnesses may keep wall-clock timing and goroutines.
func isTestFile(pass *framework.Pass, pos ast.Node) bool {
	return strings.HasSuffix(pass.File(pos.Pos()), "_test.go")
}

// pkgNameOf resolves an identifier to the package it names at an import
// site, or "" when the identifier is not a package qualifier.
func pkgNameOf(pass *framework.Pass, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// receiverOf reports the defining package path and type name of a method's
// receiver ("", "" for non-methods and plain functions).
func receiverOf(pass *framework.Pass, sel *ast.SelectorExpr) (pkgPath, typeName string) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}
