package simlint

import (
	"fmt"
	"go/ast"
	"go/token"

	"charmgo/internal/analysis/framework"
)

// CreditBalance proves SMSG credit conservation statically: every credit
// consume (window/account increment in SmsgSendWTag) is matched by
// exactly one return (the instant decrement, the creditFlight launch, or
// the EvCreditReturn drain) on every non-panicking path. The protocol is
// a typestate machine over the pair (window delta, account delta): the
// two annotated counters must move in lock-step by ±1, a function's exit
// balance must match its declared role, and plain overwrites of a credit
// field are refused outright. Two structural rules close the loop the
// per-function machine cannot see: every function that writes a credit
// field must be reachable from an annotated credit function (no
// unaccounted writers), and every `credit drain` function must be wired
// into an event dispatcher (a drain nobody calls on EvCreditReturn is a
// permanently starved window — the dominant Gemini failure mode).
var CreditBalance = &framework.Analyzer{
	Name: "creditbalance",
	Doc: "prove SMSG credit conservation: window and account move by matched " +
		"±1 steps, every path exits on its role's declared balance, and the " +
		"EvCreditReturn drain is reachable from a dispatcher",
	Grammar: "//simlint:proto credit window|account   (struct field: the counters)\n" +
		"//simlint:proto credit consume|return|drain   (func doc: the role's legal exit balance)",
	Run: runCreditBalance,
}

// creditState is the machine state: the net movement of the annotated
// window and account counters since function entry, saturating the
// protocol at ±2 (any |delta| ≥ 2 is already a refused double move).
type creditState struct{ win, acct int8 }

func (s creditState) String() string {
	return fmt.Sprintf("(win%+d, acct%+d)", s.win, s.acct)
}

// creditKey is the single global record the credit machine tracks: the
// engine's SummaryKey, so callee summaries compose through it.
type creditKey struct{}

// creditAccepts maps a declared credit role to its legal exit balances.
// consume may exit refused (0,0) or charged (+1,+1); return may exit
// unmatched (0,0 — the internode path that only launches the
// creditFlight) or credited (-1,-1); drain re-issues through the
// independently-verified consume verb, so it must itself exit balanced.
var creditAccepts = map[string][]creditState{
	"consume": {{0, 0}, {1, 1}},
	"return":  {{0, 0}, {-1, -1}},
	"drain":   {{0, 0}},
}

// creditMachine builds the balance machine: ±1 steps on either counter,
// refused at the ±2 saturation bound. "clobber" (a non-incremental credit
// field write) has no rule from any state, so it always reports.
func creditMachine() *framework.Machine[creditState] {
	m := framework.NewMachine("credit", creditState{})
	for w := int8(-2); w <= 2; w++ {
		for a := int8(-2); a <= 2; a++ {
			s := creditState{w, a}
			if w+1 <= 2 {
				m.Rule(s, "win+", creditState{w + 1, a})
			}
			if w-1 >= -2 {
				m.Rule(s, "win-", creditState{w - 1, a})
			}
			if a+1 <= 2 {
				m.Rule(s, "acct+", creditState{w, a + 1})
			}
			if a-1 >= -2 {
				m.Rule(s, "acct-", creditState{w, a - 1})
			}
		}
	}
	return m.Accept(creditState{})
}

// creditEngine builds (once per Run) the shared typestate engine, so
// callee summaries solve once across every analyzed package.
func creditEngine(pass *framework.Pass, c *protoCtx) *framework.Typestate[creditState] {
	return pass.Prog.Memo("creditbalance-engine", func() any {
		return &framework.Typestate[creditState]{
			Machine:    creditMachine(),
			Analyzer:   pass.Analyzer,
			Prog:       pass.Prog,
			SummaryKey: creditKey{},
			Classify: func(fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
				classifyCredit(c, fi, n, emit)
			},
		}
	}).(*framework.Typestate[creditState])
}

// classifyCredit attributes credit operations to one CFG node: ±1 moves
// of an annotated field, clobbers (any other write), and composition
// through unannotated helpers that transitively touch a credit field.
// Role-annotated callees deliberately compose as the identity — their
// balance contract is verified independently on their own declaration,
// and a drain loop's net effect depends on runtime queue depth.
func classifyCredit(c *protoCtx, fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
	info := fi.Pass.TypesInfo
	inspectNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IncDecStmt:
			if sel, ok := m.X.(*ast.SelectorExpr); ok {
				if role := c.selectorCreditRole(info, sel); role != "" {
					emit(framework.TsOp{Key: creditKey{}, Verb: creditVerb(role, m.Tok == token.INC), Pos: m.Pos()})
				}
			}
		case *ast.AssignStmt:
			for _, l := range m.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				role := c.selectorCreditRole(info, sel)
				if role == "" {
					continue
				}
				if unit, ok := creditUnitStep(m); ok {
					emit(framework.TsOp{Key: creditKey{}, Verb: creditVerb(role, unit), Pos: m.Pos()})
				} else {
					emit(framework.TsOp{Key: creditKey{}, Verb: "clobber", Pos: m.Pos()})
				}
			}
		case *ast.CallExpr:
			cid := staticCalleeID(info, m)
			if cid == "" {
				return true
			}
			if _, known := c.fns[cid]; known && c.creditRole(cid) == "" && c.touchesCredit(cid) {
				emit(framework.TsOp{Key: creditKey{}, Callee: cid, Pos: m.Pos()})
			}
		}
		return true
	})
}

// creditVerb renders the machine verb for a ±1 move of a credit field.
func creditVerb(role string, up bool) string {
	dir := "-"
	if up {
		dir = "+"
	}
	if role == "window" {
		return "win" + dir
	}
	return "acct" + dir
}

// creditUnitStep reports whether an assignment is a `+= 1` / `-= 1` unit
// step, and its direction. Anything else on a credit field is a clobber.
func creditUnitStep(as *ast.AssignStmt) (up, ok bool) {
	if len(as.Rhs) != 1 {
		return false, false
	}
	lit, isLit := as.Rhs[0].(*ast.BasicLit)
	if !isLit || lit.Value != "1" {
		return false, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		return true, true
	case token.SUB_ASSIGN:
		return false, true
	}
	return false, false
}

func runCreditBalance(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	c := protoContext(pass)
	ts := creditEngine(pass, c)
	for _, pf := range c.scopeFuncs(pass) {
		if !inPass(pass, pf.pkg.PkgPath) {
			continue
		}
		role := c.creditRole(pf.id)

		// Structural rule 1: unannotated credit-field writers must be
		// reachable from a declared credit function, or the write is
		// invisible to the protocol.
		if role == "" && c.creditWriters[pf.id] && !c.creditReachable(pf.id) {
			pass.Reportf(pf.decl.Name.Pos(),
				"%s writes an annotated credit field but is not reachable from any "+
					"//simlint:proto credit function: the write escapes credit accounting",
				pf.display)
			continue
		}
		if role == "" {
			continue
		}
		accepts, known := creditAccepts[role]
		if !known {
			pass.Reportf(pf.decl.Name.Pos(),
				"unknown credit role %q: want consume, return, or drain", role)
			continue
		}

		// Structural rule 2: a drain nobody dispatches is a starved window.
		if role == "drain" && !drainDispatched(c, pf.id) {
			pass.Reportf(pf.decl.Name.Pos(),
				"credit drain %s is not referenced by any event dispatcher: queued "+
					"sends would never re-issue on EvCreditReturn", pf.display)
		}

		fi := findFuncInfo(pass, pf.decl)
		if fi == nil {
			continue
		}
		accept := func(s creditState) bool {
			for _, a := range accepts {
				if s == a {
					return true
				}
			}
			return false
		}
		entry := map[any]creditState{creditKey{}: {}}
		for _, v := range ts.Analyze(fi, entry, accept) {
			switch {
			case v.Exit:
				pass.Reportf(v.Pos,
					"credit imbalance: %s may exit in state %s, not a legal "+
						"`credit %s` balance", pf.display, v.State, role)
			case v.Verb == "clobber":
				pass.Reportf(v.Pos,
					"credit field overwritten non-incrementally in %s: the window and "+
						"account may only move by ±1 steps", pf.display)
			default:
				pass.Reportf(v.Pos,
					"unbalanced credit operation %s in state %s: window and account "+
						"must move in lock-step within one credit of balance", v.Verb, v.State)
			}
		}
	}
	return nil
}

// drainDispatched reports whether any event dispatcher references the
// drain function.
func drainDispatched(c *protoCtx, drainID string) bool {
	for _, d := range c.dispatchers {
		if c.refs[d.fn.id][drainID] {
			return true
		}
	}
	return false
}
