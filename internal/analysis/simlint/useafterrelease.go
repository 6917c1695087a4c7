package simlint

import (
	"charmgo/internal/analysis/framework"
)

// UseAfterRelease flags any read, write, or re-release of a pooled value
// after the Put (or //simlint:release call) that returned it to its pool,
// on any control-flow path. Pools zero on Put and hand the same memory to
// the next Get, so a stale pointer dereference corrupts an unrelated
// in-flight record — the classic recycled-descriptor bug the paper's
// pool discipline (§V.B) invites. The extract-fields-then-Put idiom
// (read everything you need into locals, release, continue with the
// locals) is the sanctioned shape and passes clean.
//
// In the ownership machine (pool.go) these are the verbs refused in the
// "released" state: a use or transfer, or a second release.
var UseAfterRelease = &framework.Analyzer{
	Name: "useafterrelease",
	Doc: "forbid using a pooled value after the Put/release that returned it to " +
		"its pool, including releasing it twice, on any path",
	Run: runUseAfterRelease,
}

func runUseAfterRelease(pass *framework.Pass) error {
	poolViolations(pass, func(v framework.TsViolation, name string) {
		if v.Exit || v.State != "released" {
			return
		}
		if v.Verb == "release" {
			pass.Reportf(v.Pos,
				"pooled value %s released twice: it was already returned to its pool", name)
			return
		}
		pass.Reportf(v.Pos,
			"use of pooled value %s after it was released: the pool may have "+
				"recycled it into another record", name)
	})
	return nil
}
