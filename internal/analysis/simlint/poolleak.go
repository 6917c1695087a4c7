package simlint

import (
	"charmgo/internal/analysis/framework"
)

// PoolLeak verifies the mem.FreeList / mem.SlabCache discipline on every
// control-flow path: a pooled value acquired by a function (Get, an
// annotated //simlint:acquire call, a type assertion to a pooled type,
// or a map lookup whose entry is then deleted) must be released (Put, an
// annotated //simlint:release call) or have its ownership transferred
// (stored, passed on, returned, sent, captured) before the function
// returns. Paths that end in panic are exempt. The per-message pools are
// the §V.B memory-pool mechanism of the paper; a descriptor that leaks
// on an error path drains the pool and silently degrades the modeled
// steady state into allocation churn.
//
// In the ownership machine (pool.go) a leak is a variable that may
// still be "owned" at function exit.
//
// Scope limit: the analysis is intraprocedural, tracking values from
// their acquire site. A pooled value received as a parameter is borrowed
// — the release obligation was transferred by the caller at the call —
// so a function that releases on its caller's behalf (e.g. mpi.Recv,
// which ends every envelope's life) is audited by convention and doc
// comment, not dataflow. Every function-local acquire, including every
// error/early-return path in the machine layers, is machine-checked:
// deleting any single Put in internal/machine/ugnimachine fails the lint.
var PoolLeak = &framework.Analyzer{
	Name: "poolleak",
	Doc: "require every pooled acquire (FreeList/SlabCache Get, //simlint:acquire, " +
		"pooled type assertion, map-entry delete) to reach a Put/release or an " +
		"ownership transfer on every non-panicking path",
	Run: runPoolLeak,
}

func runPoolLeak(pass *framework.Pass) error {
	poolViolations(pass, func(v framework.TsViolation, name string) {
		if v.Exit {
			pass.Reportf(v.Pos,
				"pooled value %s may leak: owned here but neither released (Put) nor "+
					"transferred on some path to return", name)
		}
	})
	return nil
}
