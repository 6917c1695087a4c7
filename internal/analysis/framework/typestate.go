package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the generic interprocedural typestate engine behind the
// protoflow analyzer family (simlint: creditbalance, flightlifecycle,
// boundedretry) and the pool-ownership pair (poolleak, useafterrelease).
// A protocol is declared as a state machine — states, plus transition
// verbs bound to source events (calls, field writes, pool operations) by
// an analyzer-supplied classifier — and the engine proves that every
// abstract record obeys it on every non-panicking CFG path:
//
//   - Machine[S] declares the states, the (state, verb) → state rules,
//     and the accepting (terminal) states. A verb fired in a state with
//     no rule is a protocol violation at that site.
//   - Typestate[S] runs the machine over a function's CFG with the
//     Forward solver. The fact is a map from abstract record key to the
//     *set* of states the record may be in (a may-analysis: joins
//     union). At function exit every tracked record must sit in an
//     accepting state; a non-accepting state at Exit names a path that
//     abandons the protocol. Panic paths route to PanicExit and are
//     exempt.
//   - Calls compose through per-function protocol summaries: for the
//     engine's distinguished SummaryKey, SummaryExit(fn, s) solves the
//     callee's CFG from entry state s and memoizes the exit-state set.
//     The classifier requests composition by emitting a TsOp with
//     Callee set; the engine folds the summary into the caller's fact.
//     Recursion and unknown callees degrade to the identity summary
//     {s} — the sound "no observable protocol effect" default, since
//     every declared function is also analyzed as its own root.
//   - Record identity uses the PR 7 points-to analysis: RecordKey maps
//     a variable to its abstract allocation site when the solver
//     resolves a unique one, so aliases of one record share a typestate
//     cell instead of being tracked twice.
//
// DESIGN.md §6 "Protocol typestate rules" documents the soundness
// contract; the `//simlint:proto` annotation grammar that binds verbs
// to this engine lives in the simlint protoflow context.

// tsRule is a (state, verb) transition key.
type tsRule[S comparable] struct {
	from S
	verb string
}

// Machine is a declared protocol state machine.
type Machine[S comparable] struct {
	Name  string
	Start S

	accept map[S]bool
	rules  map[tsRule[S]]S
}

// NewMachine declares a machine with its start state.
func NewMachine[S comparable](name string, start S) *Machine[S] {
	return &Machine[S]{
		Name:   name,
		Start:  start,
		accept: make(map[S]bool),
		rules:  make(map[tsRule[S]]S),
	}
}

// Rule adds one transition and returns the machine for chaining.
func (m *Machine[S]) Rule(from S, verb string, to S) *Machine[S] {
	m.rules[tsRule[S]{from, verb}] = to
	return m
}

// Accept marks states as accepting: records may end a function in them.
func (m *Machine[S]) Accept(states ...S) *Machine[S] {
	for _, s := range states {
		m.accept[s] = true
	}
	return m
}

// Step fires verb from state s; ok is false when no rule applies (a
// protocol violation at the firing site).
func (m *Machine[S]) Step(s S, verb string) (S, bool) {
	to, ok := m.rules[tsRule[S]{s, verb}]
	return to, ok
}

// Accepting reports whether s is an accepting state.
func (m *Machine[S]) Accepting(s S) bool { return m.accept[s] }

// TsOp is one protocol operation a classifier attributes to a CFG node,
// in source order:
//
//   - Birth: Key enters the machine in its start state.
//   - Verb != "": Key fires the transition verb.
//   - Callee != "": the node calls Callee (a callgraph FuncID); the
//     engine folds Callee's summary for the engine's SummaryKey.
//
// Ops with a nil Key, and verbs for a Key with no record, are ignored,
// so classifiers can emit unconditionally. Restamp makes a verb that
// moves the record to a new state also move its position (the one exit
// diagnostics report) to Pos: the op that created the obligation, not
// the birth, then names it.
type TsOp struct {
	Key     any
	Birth   bool
	Verb    string
	Callee  string
	Pos     token.Pos
	Restamp bool
}

// TsViolation is one protocol violation: a verb fired in a state with no
// rule (Exit=false), or a record left in a non-accepting state on some
// path to function exit (Exit=true).
type TsViolation struct {
	Pos   token.Pos
	Key   any
	Verb  string // the refused verb; "" for exit violations
	State string // the offending state, rendered
	Exit  bool
}

// tsCell is one record's fact: the set of states it may be in, the
// position of the op that created it (for exit diagnostics), and whether
// a violation already wedged it (a wedged record stops transitioning so
// one bug yields one report, not a cascade).
type tsCell[S comparable] struct {
	states map[S]bool
	pos    token.Pos
	wedged bool
}

// tsFact maps abstract record keys to their cells. Treated as immutable
// by the solver: the transfer function copies on first write.
type tsFact[S comparable] map[any]*tsCell[S]

// tsSumKey memoizes one callee summary query.
type tsSumKey[S comparable] struct {
	fn    string
	entry S
}

// Typestate runs a Machine over function CFGs with interprocedural
// summary composition for one distinguished key.
type Typestate[S comparable] struct {
	Machine  *Machine[S]
	Analyzer *Analyzer
	Prog     *Program

	// Classify attributes protocol operations to one CFG node, emitting
	// them in source order. It runs both during the fixpoint and during
	// the reporting replay, so it must be deterministic and must not
	// report diagnostics itself.
	Classify func(fi *FuncInfo, n ast.Node, emit func(TsOp))

	// SummaryKey is the record key summaries are computed for. Callee
	// ops only compose when the caller tracks this key.
	SummaryKey any

	summaries map[tsSumKey[S]]map[S]bool
	solving   map[tsSumKey[S]]bool
	passes    map[*Package]*Pass
}

// Analyze solves fi against the machine. entry seeds records that exist
// at function entry (the start state of a global protocol, a parameter's
// assumed state); records born inside the body enter via Birth ops.
// accept overrides the machine's accepting set when non-nil — protocols
// whose legal exit states depend on the function's declared role
// (consume vs. return) pass the role's acceptor.
func (t *Typestate[S]) Analyze(fi *FuncInfo, entry map[any]S, accept func(S) bool) []TsViolation {
	cfg := fi.CFG()
	if cfg == nil {
		return nil
	}
	if accept == nil {
		accept = t.Machine.Accepting
	}
	entryFact := make(tsFact[S], len(entry))
	for k, s := range entry {
		entryFact[k] = &tsCell[S]{states: map[S]bool{s: true}, pos: fi.Pos().Pos()}
	}

	silent := func(f tsFact[S], n ast.Node) tsFact[S] { return t.transfer(fi, f, n, nil) }
	res := Forward(cfg, entryFact, silent, joinTsFact[S], equalTsFact[S])

	var out []TsViolation
	report := func(v TsViolation) { out = append(out, v) }
	for i, b := range cfg.Blocks {
		if !res.Reached[i] {
			continue
		}
		f := res.In[i]
		for _, n := range b.Nodes {
			f = t.transfer(fi, f, n, report)
		}
		if b == cfg.Exit {
			t.checkExit(f, accept, report)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// checkExit reports every may-state that is not accepting for every
// non-wedged record at function exit.
func (t *Typestate[S]) checkExit(f tsFact[S], accept func(S) bool, report func(TsViolation)) {
	for key, cell := range f {
		if cell.wedged {
			continue
		}
		for _, s := range sortedTsStates(cell.states) {
			if !accept(s) {
				report(TsViolation{Pos: cell.pos, Key: key, State: fmt.Sprint(s), Exit: true})
			}
		}
	}
}

// transfer applies one node's protocol operations. report is nil during
// the fixpoint and non-nil during the replay, so each violation is
// emitted exactly once.
func (t *Typestate[S]) transfer(fi *FuncInfo, f tsFact[S], n ast.Node, report func(TsViolation)) tsFact[S] {
	if t.Classify == nil {
		return f
	}
	out := f
	copied := false
	mutate := func(key any, cell *tsCell[S]) {
		if !copied {
			copied = true
			next := make(tsFact[S], len(out)+1)
			for k, v := range out {
				next[k] = v
			}
			out = next
		}
		out[key] = cell
	}
	t.Classify(fi, n, func(op TsOp) {
		if op.Key == nil {
			return
		}
		switch {
		case op.Birth:
			mutate(op.Key, &tsCell[S]{states: map[S]bool{t.Machine.Start: true}, pos: op.Pos})
		case op.Callee != "":
			cell, ok := out[op.Key]
			if !ok || cell.wedged || op.Key != t.SummaryKey {
				return
			}
			next := make(map[S]bool, len(cell.states))
			for s := range cell.states {
				for e := range t.SummaryExit(op.Callee, s) {
					next[e] = true
				}
			}
			mutate(op.Key, &tsCell[S]{states: next, pos: cell.pos})
		case op.Verb != "":
			cell, ok := out[op.Key]
			if !ok || cell.wedged {
				return
			}
			next := make(map[S]bool, len(cell.states))
			wedged := false
			pos := cell.pos
			for _, s := range sortedTsStates(cell.states) {
				to, ok := t.Machine.Step(s, op.Verb)
				if !ok {
					if report != nil {
						report(TsViolation{Pos: op.Pos, Key: op.Key, Verb: op.Verb, State: fmt.Sprint(s)})
					}
					wedged = true
					next[s] = true
					continue
				}
				if op.Restamp && to != s {
					pos = op.Pos
				}
				next[to] = true
			}
			mutate(op.Key, &tsCell[S]{states: next, pos: pos, wedged: wedged})
		}
	})
	return out
}

// SummaryExit returns the set of states the callee may exit in when
// entered with the SummaryKey in state entry: the per-function protocol
// summary of the interprocedural composition. Unknown callees, recursive
// queries, and callees whose exit is unreachable (they always panic)
// yield the identity summary {entry}.
func (t *Typestate[S]) SummaryExit(fnID string, entry S) map[S]bool {
	identity := map[S]bool{entry: true}
	key := tsSumKey[S]{fnID, entry}
	if t.summaries == nil {
		t.summaries = make(map[tsSumKey[S]]map[S]bool)
		t.solving = make(map[tsSumKey[S]]bool)
	}
	if s, ok := t.summaries[key]; ok {
		return s
	}
	if t.solving[key] {
		return identity
	}
	pkg, fd, ok := t.Prog.FuncSource(fnID)
	if !ok {
		t.summaries[key] = identity
		return identity
	}
	t.solving[key] = true
	defer delete(t.solving, key)

	fi := &FuncInfo{Pass: t.passFor(pkg), Decl: fd, File: fileOf(pkg, fd.Pos())}
	cfg := fi.CFG()
	entryFact := tsFact[S]{t.SummaryKey: &tsCell[S]{states: map[S]bool{entry: true}, pos: fd.Pos()}}
	silent := func(f tsFact[S], n ast.Node) tsFact[S] { return t.transfer(fi, f, n, nil) }
	res := Forward(cfg, entryFact, silent, joinTsFact[S], equalTsFact[S])

	exit := make(map[S]bool)
	if res.Reached[cfg.Exit.Index] {
		f := res.In[cfg.Exit.Index]
		for _, n := range cfg.Exit.Nodes {
			f = t.transfer(fi, f, n, nil)
		}
		if cell, ok := f[t.SummaryKey]; ok && !cell.wedged {
			for s := range cell.states {
				exit[s] = true
			}
		}
	}
	if len(exit) == 0 {
		exit = identity
	}
	t.summaries[key] = exit
	return exit
}

// passFor builds (once per package) the Pass summary solves run under:
// the callee's type information with diagnostics discarded.
func (t *Typestate[S]) passFor(pkg *Package) *Pass {
	if t.passes == nil {
		t.passes = make(map[*Package]*Pass)
	}
	if p, ok := t.passes[pkg]; ok {
		return p
	}
	var scratch []Diagnostic
	p := NewPass(t.Analyzer, pkg, t.Prog, &scratch)
	t.passes[pkg] = p
	return p
}

// CellKey is the points-to-backed record identity: the ID of the unique
// abstract object a record variable refers to.
type CellKey struct{ ID int }

// RecordKey resolves the abstract record a variable denotes. When the
// points-to solver resolves the variable to exactly one known allocation
// site, that object's identity is the key — aliases of one record then
// share a typestate cell. Otherwise the variable itself is the key
// (per-function tracking, which is exact for the common
// one-local-per-record idiom).
func (t *Typestate[S]) RecordKey(v *types.Var) any {
	if v == nil {
		return nil
	}
	objs := t.Prog.PointsTo().VarPointsTo(v)
	if len(objs) == 1 && objs[0].Kind != ObjUnknown {
		return CellKey{objs[0].ID}
	}
	return v
}

// joinTsFact unions two facts per key: state sets union, wedged-ness
// sticks, the earlier creation position wins.
func joinTsFact[S comparable](a, b tsFact[S]) tsFact[S] {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(tsFact[S], len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, bc := range b {
		ac, ok := out[k]
		if !ok {
			out[k] = bc
			continue
		}
		states := make(map[S]bool, len(ac.states)+len(bc.states))
		for s := range ac.states {
			states[s] = true
		}
		for s := range bc.states {
			states[s] = true
		}
		pos := ac.pos
		if bc.pos != token.NoPos && (pos == token.NoPos || bc.pos < pos) {
			pos = bc.pos
		}
		out[k] = &tsCell[S]{states: states, pos: pos, wedged: ac.wedged || bc.wedged}
	}
	return out
}

func equalTsFact[S comparable](a, b tsFact[S]) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ac := range a {
		bc, ok := b[k]
		if !ok || ac.wedged != bc.wedged || len(ac.states) != len(bc.states) {
			return false
		}
		for s := range ac.states {
			if !bc.states[s] {
				return false
			}
		}
	}
	return true
}

// sortedTsStates orders a state set by its rendered form, for
// deterministic iteration and diagnostics.
func sortedTsStates[S comparable](set map[S]bool) []S {
	out := make([]S, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// fileOf finds the syntax file of pkg containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Syntax {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// FuncSource resolves a callgraph FuncID to its declaration and defining
// package, for analyses that solve callee bodies (typestate summaries).
func (p *Program) FuncSource(id string) (*Package, *ast.FuncDecl, bool) {
	p.build()
	f, ok := p.funcs[id]
	if !ok {
		return nil, nil, false
	}
	return f.pkg, f.decl, true
}
