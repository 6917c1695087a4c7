package simlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"charmgo/internal/analysis/framework"
)

// FlightLifecycle proves every deferred-completion flight record obeys
// its lifecycle exactly once on every non-panicking path: a pooled
// `flight record` is born (pool Get / slab address), filled, launched
// into the engine or else zeroed and Put back; a completion callback
// re-enters it, may use it, and must zero-then-Put (record kinds) or
// clear the pending flag (oneshot kinds) before exit. No path may drop
// a live flight (a leak the pool never recovers), use one after
// retirement (the recycled-record corruption poolleak cannot see because
// the Put happens in a different function), or Put one that was never
// zeroed. The machine is per-record — identity comes from the points-to
// cells, so aliases of one flight share a state — and deliberately
// intraprocedural: the launch verb hands the record to the engine, and
// the annotated completion callback independently proves the second
// half of the lifecycle (the composition contract in DESIGN.md §6).
var FlightLifecycle = &framework.Analyzer{
	Name: "flightlifecycle",
	Doc: "prove flight records are launched or retired exactly once per path: " +
		"no dropped flights, no use after retirement, Put only after zeroing, " +
		"oneshot pending flags settled by their completion callback",
	Grammar: "//simlint:proto flight record|oneshot   (type doc: pooled vs. reusable record)\n" +
		"//simlint:proto flight pending   (struct field: the oneshot pending marker)\n" +
		"//simlint:proto flight complete|defer   (func doc: completion callback's terminal duty)",
	Run: runFlightLifecycle,
}

// flightMachine declares the lifecycle. Record kinds: born → live (birth
// or callback entry) → launched (handed to the engine; still readable)
// or zeroed → retired (Put). Oneshot kinds: born → idle → pending (armed)
// → committed (launched while armed) or settled (pending flag cleared by
// the completion callback). "use" (any field access) self-loops in every
// state that still owns the record — and has no rule in "retired", so a
// use after Put reports.
func flightMachine() *framework.Machine[string] {
	return framework.NewMachine("flight", "born").
		Rule("born", "record", "live").
		Rule("born", "enter", "live").
		Rule("born", "oneshot", "idle").
		Rule("born", "engage", "pending").
		Rule("live", "use", "live").
		Rule("live", "launch", "launched").
		Rule("live", "zero", "zeroed").
		Rule("launched", "use", "launched").
		Rule("zeroed", "put", "retired").
		Rule("idle", "use", "idle").
		Rule("idle", "arm", "pending").
		Rule("pending", "use", "pending").
		Rule("pending", "launch", "committed").
		Rule("pending", "settle", "settled").
		Rule("committed", "use", "committed").
		Rule("settled", "use", "settled").
		Accept("launched", "retired", "settled", "committed")
}

// flightAccepts narrows the exit contract by the callback's declared
// role: a `flight complete` callback must actually retire or settle the
// record (exiting merely "launched" would double-defer it), a `flight
// defer` callback must re-launch it.
var flightAccepts = map[string][]string{
	"complete": {"retired", "settled"},
	"defer":    {"launched"},
}

func flightEngine(pass *framework.Pass, c *protoCtx) *framework.Typestate[string] {
	return pass.Prog.Memo("flightlifecycle-engine", func() any {
		ts := &framework.Typestate[string]{
			Machine:  flightMachine(),
			Analyzer: pass.Analyzer,
			Prog:     pass.Prog,
		}
		ts.Classify = func(fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
			classifyFlight(c, ts, fi, n, emit)
		}
		return ts
	}).(*framework.Typestate[string])
}

// classifyFlight attributes flight operations to one CFG node. Bare
// flight identifiers are not uses — only selector accesses are — so the
// releasing Put's own argument and the launch call's record argument do
// not read the record they hand off.
func classifyFlight(c *protoCtx, ts *framework.Typestate[string], fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
	info := fi.Pass.TypesInfo
	role := ""
	if obj := fi.Obj(); obj != nil {
		role = c.flightRole(framework.FuncID(obj))
	}
	flightVar := func(e ast.Expr) (*types.Var, string) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, ""
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			if v, ok = info.Defs[id].(*types.Var); !ok {
				return nil, ""
			}
		}
		kind, _ := c.flightPtrType(v.Type())
		if kind == "" {
			return nil, ""
		}
		return v, kind
	}

	inspectNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Birth: `fl := pool.Get()` / `fl := arg.(*T)` / `st := &slab[i]`.
			// A type assert inside a role-annotated callback is the record
			// re-entering mid-lifecycle, not a fresh birth.
			if m.Tok == token.DEFINE {
				for i, l := range m.Lhs {
					v, kind := flightVar(l)
					if v == nil {
						continue
					}
					verb := map[string]string{"record": "record", "oneshot": "oneshot"}[kind]
					if role != "" && i < len(m.Rhs) {
						if _, isAssert := m.Rhs[i].(*ast.TypeAssertExpr); isAssert {
							verb = map[string]string{"record": "enter", "oneshot": "engage"}[kind]
						}
					}
					emit(framework.TsOp{Key: ts.RecordKey(v), Birth: true, Pos: m.Pos()})
					emit(framework.TsOp{Key: ts.RecordKey(v), Verb: verb, Pos: m.Pos()})
				}
				return true
			}
			// Zero: `*fl = T{}` readies a record for Put.
			if len(m.Lhs) == 1 {
				if star, ok := m.Lhs[0].(*ast.StarExpr); ok {
					if v, _ := flightVar(star.X); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "zero", Pos: m.Pos()})
						return true
					}
				}
			}
			// Arm/settle: writing the annotated pending field.
			for i, l := range m.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok || !c.pendingFields[fieldKeyOfSel(info, sel)] {
					continue
				}
				v, _ := flightVar(sel.X)
				if v == nil {
					continue
				}
				verb := "arm"
				if i < len(m.Rhs) {
					if id, ok := m.Rhs[i].(*ast.Ident); ok && id.Name == "false" {
						verb = "settle"
					}
				}
				emit(framework.TsOp{Key: ts.RecordKey(v), Verb: verb, Pos: sel.Pos()})
			}
		case *ast.CallExpr:
			// Put: the pool retirement verb.
			if poolMethod(info, m) == "Put" {
				for _, a := range m.Args {
					if v, _ := flightVar(a); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "put", Pos: m.Pos()})
					}
				}
				return true
			}
			// Launch: a call passing both a completion function value and the
			// bare record (TransferThen/GetThen/AtNodeArg and machine-layer
			// wrappers) hands the record to the engine.
			if funcValueArg(info, m) {
				for _, a := range m.Args {
					if v, _ := flightVar(a); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "launch", Pos: m.Pos()})
					}
				}
			}
		case *ast.SelectorExpr:
			// Any field access through the record is a use — except the
			// pending field, whose writes are the arm/settle verbs above and
			// whose reads poll for completion.
			if c.pendingFields[fieldKeyOfSel(info, m)] {
				return false
			}
			if v, _ := flightVar(m.X); v != nil {
				emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "use", Pos: m.Pos()})
				return false
			}
		}
		return true
	})
}

func runFlightLifecycle(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	c := protoContext(pass)
	ts := flightEngine(pass, c)
	for _, pf := range c.scopeFuncs(pass) {
		if !inPass(pass, pf.pkg.PkgPath) {
			continue
		}
		role := c.flightRole(pf.id)
		var accept func(string) bool
		if role != "" {
			states, known := flightAccepts[role]
			if !known {
				pass.Reportf(pf.decl.Name.Pos(),
					"unknown flight role %q: want complete or defer", role)
				continue
			}
			accept = func(s string) bool {
				for _, a := range states {
					if s == a {
						return true
					}
				}
				return false
			}
		}
		fi := findFuncInfo(pass, pf.decl)
		if fi == nil {
			continue
		}
		for _, v := range ts.Analyze(fi, nil, accept) {
			switch {
			case v.Exit && role != "":
				pass.Reportf(v.Pos,
					"flight entering `flight %s` callback %s may exit in state %q: "+
						"the callback must leave it %s", role, pf.display, v.State,
					exitDuty(role))
			case v.Exit:
				pass.Reportf(v.Pos,
					"flight born here may be dropped: some path through %s exits in "+
						"state %q without launching or retiring it", pf.display, v.State)
			case v.Verb == "use" && v.State == "retired":
				pass.Reportf(v.Pos,
					"flight used after being returned to its pool: the pool may have "+
						"recycled it into another record")
			case v.Verb == "put":
				pass.Reportf(v.Pos,
					"flight Put from state %q: records must be zeroed before pool "+
						"retirement (and only retired once)", v.State)
			default:
				pass.Reportf(v.Pos,
					"flight lifecycle violation in %s: %q is not legal in state %q",
					pf.display, v.Verb, v.State)
			}
		}
	}
	return nil
}

// exitDuty renders the terminal obligation of a flight-callback role.
func exitDuty(role string) string {
	if role == "defer" {
		return "re-launched into the engine"
	}
	return "retired to its pool or settled"
}
