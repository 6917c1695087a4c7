package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the framework: a
// context-insensitive, flow-insensitive, Andersen-style inclusion-based
// points-to (alias/escape) analysis over `go/ast`, seeded per function and
// propagated along the same whole-program view the call graph uses.
//
// Precision model (the "soundness contract" its clients, such as the
// typestate engine's record identity, are phrased against):
//
//   - Allocation sites are abstract objects: `&T{...}`, composite
//     literals, `new`, `make`, and the storage of address-taken or
//     struct-valued variables. One site stands for every instance it
//     creates (all records built by one constructor loop share one object).
//   - Named struct fields are distinguished (field-sensitive); slice,
//     array, map, and channel payloads collapse to one element node per
//     object; map keys get their own node.
//   - Calls resolved to a declared function in the analyzed packages bind
//     arguments to the callee's parameters and results back to the call
//     site, context-insensitively (one parameter node per function).
//   - Everything else — interface method calls, calls through stored
//     function values, and calls into packages outside the load (the
//     standard library) — is *unresolved*: pointer-carrying arguments
//     flow into a single Unknown object whose contents are Unknown, and
//     such calls return Unknown. A function value reaching an unresolved
//     call is marked escaped and its parameters also receive Unknown.
//     Analyzers treat "points to Unknown" as "cannot prove", never as
//     "safe": the analysis is sound for reflection-free code in which the
//     checked property never depends on resolving a dynamic call.
//   - Flow-insensitivity means assignments accumulate: a pointer that
//     ever pointed at an object is assumed to still alias it. This only
//     over-approximates aliasing, which is the conservative direction for
//     an alias-based rule.
//
// The solver is the textbook worklist over inclusion constraints: copy
// edges between nodes, plus complex (load/store/field-address) constraints
// re-evaluated as points-to sets grow. The least solution is unique, so
// results are deterministic regardless of iteration order; query helpers
// additionally sort their output.

// PObjKind classifies an abstract object.
type PObjKind uint8

const (
	ObjAlloc   PObjKind = iota // &T{}, composite literal, new, make, append growth
	ObjVar                     // the storage of an address-taken or struct-valued variable
	ObjGlobal                  // the storage of a package-level variable
	ObjField                   // one named field of another object (address-taken or traversed)
	ObjElem                    // the element/key payload of a slice/array/map/channel object
	ObjFunc                    // a function or bound method value
	ObjUnknown                 // the single universal object unresolved calls exchange
)

func (k PObjKind) String() string {
	switch k {
	case ObjAlloc:
		return "alloc"
	case ObjVar:
		return "var"
	case ObjGlobal:
		return "global"
	case ObjField:
		return "field"
	case ObjElem:
		return "elem"
	case ObjFunc:
		return "func"
	case ObjUnknown:
		return "unknown"
	}
	return "?"
}

// PObj is one abstract object of the points-to analysis.
type PObj struct {
	ID     int
	Kind   PObjKind
	Pos    token.Pos
	Type   types.Type // static type of the site (nil for Unknown and synthetic nodes)
	Label  string     // diagnostic name: "make([]T)", "&Engine{}", "global sim.x", ...
	Parent int        // enclosing object for ObjField/ObjElem (-1 otherwise)
	Field  string     // field name for ObjField, "$elem"/"$key" for ObjElem
	FuncID string     // for ObjFunc: the callgraph FuncID ("" for literals)
}

// ptNode is one constraint-graph node: a points-to set plus outgoing
// constraints. A node may also *be* an object (obj >= 0), in which case
// appearing in another node's set means "may point at that object".
//
// The solver uses difference propagation: prop records the members that
// have already flowed along this node's constraints, so reprocessing
// touches only the delta. Copy edges are deduplicated globally
// (PointsTo.edges); both are what keep the worklist loop near-linear in
// the final solution size instead of re-walking full sets.
type ptNode struct {
	pts    intset
	prop   intset // members already propagated along the constraints below
	copies []int  // pts(target) ⊇ pts(this)

	// Complex constraints keyed on this node's points-to set.
	loads  []derefC // dst ⊇ contents(field f of each object here)
	stores []derefC // contents(field f of each object here) ⊇ src
	addrs  []derefC // dst ∋ (field f of each object here) as an object

	obj int // object id if this node is an object, else -1
}

// derefC is one complex constraint hanging off a base node.
type derefC struct {
	field string // "" = the object's direct value; else field/"$elem"/"$key"
	node  int    // dst (loads/addrs) or src (stores)
}

// intset is a small deterministic integer set.
type intset map[int]struct{}

func (s intset) add(i int) bool {
	if _, ok := s[i]; ok {
		return false
	}
	s[i] = struct{}{}
	return true
}

func (s intset) sorted() []int {
	out := make([]int, 0, len(s))
	for i := range s {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// PointsTo is the solved whole-program analysis. Build it once per
// Program via Program.PointsTo; queries are safe for concurrent reads.
type PointsTo struct {
	prog  *Program
	nodes []*ptNode
	objs  []*PObj

	byVar   map[types.Object]int // local/parameter value nodes
	byKey   map[string]int       // globals, func params/results, derived nodes
	derived map[int][]derefKey   // object id -> its materialized field/elem nodes
	valOf   map[int]int          // object id -> node holding its direct value

	unknownNode int
	unknownObj  int

	edges map[uint64]struct{} // deduplicated copy edges (src<<32 | dst)
	work  []int
	inWk  []bool
}

type derefKey struct {
	field string
	node  int
}

// PointsTo returns the program's points-to analysis, building and solving
// it on first use (memoized alongside the call graph).
func (p *Program) PointsTo() *PointsTo {
	return p.Memo("pointsto", func() any {
		pt := newPointsTo(p)
		pt.generate()
		pt.solve()
		return pt
	}).(*PointsTo)
}

func newPointsTo(p *Program) *PointsTo {
	pt := &PointsTo{
		prog:    p,
		byVar:   make(map[types.Object]int),
		byKey:   make(map[string]int),
		derived: make(map[int][]derefKey),
		valOf:   make(map[int]int),
		edges:   make(map[uint64]struct{}),
	}
	// Node 0 / object 0: the universal Unknown. Its contents are itself.
	pt.unknownNode = pt.newNode()
	pt.unknownObj = pt.newObj(&PObj{Kind: ObjUnknown, Label: "<unknown>", Parent: -1}, pt.unknownNode)
	pt.nodes[pt.unknownNode].pts.add(pt.unknownObj)
	pt.valOf[pt.unknownObj] = pt.unknownNode
	return pt
}

func (pt *PointsTo) newNode() int {
	pt.nodes = append(pt.nodes, &ptNode{pts: make(intset), prop: make(intset), obj: -1})
	return len(pt.nodes) - 1
}

// newObj registers o as the object identity of node n.
func (pt *PointsTo) newObj(o *PObj, n int) int {
	o.ID = len(pt.objs)
	pt.objs = append(pt.objs, o)
	pt.nodes[n].obj = o.ID
	return o.ID
}

// Obj returns the object record by id.
func (pt *PointsTo) Obj(id int) *PObj { return pt.objs[id] }

// Unknown returns the id of the universal unknown object.
func (pt *PointsTo) Unknown() int { return pt.unknownObj }

// objNode returns the node that *is* object id (for membership in sets).
func (pt *PointsTo) objNode(id int) int {
	for n, nd := range pt.nodes {
		if nd.obj == id {
			return n
		}
	}
	panic("pointsto: object without node")
}

// ---------------------------------------------------------------------------
// Node lookup and derivation

// varNode returns the value node of a variable or named constant-like
// object. Package-level variables are keyed by path so the analyzed and
// dependency views of a package share one node.
func (pt *PointsTo) varNode(obj types.Object) int {
	if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
		v.Parent() == v.Pkg().Scope() {
		return pt.keyedNode("G:" + v.Pkg().Path() + "." + v.Name())
	}
	if n, ok := pt.byVar[obj]; ok {
		return n
	}
	n := pt.newNode()
	pt.byVar[obj] = n
	return n
}

func (pt *PointsTo) keyedNode(key string) int {
	if n, ok := pt.byKey[key]; ok {
		return n
	}
	n := pt.newNode()
	pt.byKey[key] = n
	if strings.HasPrefix(key, "G:") {
		// A package-level variable's storage is itself an object (it can
		// be address-taken from anywhere); its value node doubles as the
		// storage contents.
		pt.newObj(&PObj{Kind: ObjGlobal, Label: key[2:], Parent: -1}, n)
		pt.valOf[pt.nodes[n].obj] = n
	}
	return n
}

// storageNode returns the node that is the *storage object* of a
// variable (for address-of and struct-valued field access). The storage
// object's direct value is the variable's value node.
func (pt *PointsTo) storageNode(obj types.Object, label string) int {
	val := pt.varNode(obj)
	if pt.nodes[val].obj >= 0 {
		return val // globals: storage and value are one node already
	}
	key := fmt.Sprintf("S:%p", obj)
	if n, ok := pt.byKey[key]; ok {
		return n
	}
	n := pt.newNode()
	pt.byKey[key] = n
	id := pt.newObj(&PObj{Kind: ObjVar, Pos: obj.Pos(), Type: obj.Type(), Label: label, Parent: -1}, n)
	pt.valOf[id] = val
	return n
}

// fieldNode returns the node holding the value of object id's field (or
// "$elem"/"$key" payload), creating it on first use. The node is itself
// an object, so &obj.field works. Unknown's every field is Unknown.
func (pt *PointsTo) fieldNode(id int, field string) int {
	if id == pt.unknownObj {
		return pt.unknownNode
	}
	key := fmt.Sprintf("f:%d:%s", id, field)
	if n, ok := pt.byKey[key]; ok {
		return n
	}
	n := pt.newNode()
	pt.byKey[key] = n
	parent := pt.objs[id]
	fid := pt.newObj(&PObj{
		Kind: ObjField, Pos: parent.Pos, Type: fieldType(parent.Type, field),
		Label: parent.Label + "." + field, Parent: id, Field: field,
	}, n)
	if field == "$elem" || field == "$key" {
		pt.objs[fid].Kind = ObjElem
	}
	pt.valOf[fid] = n
	pt.derived[id] = append(pt.derived[id], derefKey{field: field, node: n})
	return n
}

// valNode returns the node holding an object's direct value (what `*p`
// reads when p points at it).
func (pt *PointsTo) valNode(id int) int {
	if n, ok := pt.valOf[id]; ok {
		return n
	}
	// Plain allocs: direct value == the "$elem"-free deref cell.
	n := pt.fieldNode(id, "$val")
	pt.valOf[id] = n
	return n
}

// fieldType resolves the static type of a named field, best-effort.
func fieldType(t types.Type, field string) types.Type {
	if t == nil || strings.HasPrefix(field, "$") {
		return nil
	}
	for t != nil {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == field {
					return u.Field(i).Type()
				}
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// funcNode returns the object node of a declared function (by FuncID) or
// a function literal (by position).
func (pt *PointsTo) funcNode(id string, pos token.Pos, typ types.Type) int {
	key := "F:" + id
	if id == "" {
		key = fmt.Sprintf("F:lit:%d", pos)
	}
	if n, ok := pt.byKey[key]; ok {
		return n
	}
	n := pt.newNode()
	pt.byKey[key] = n
	oid := pt.newObj(&PObj{Kind: ObjFunc, Pos: pos, Type: typ, Label: key[2:], Parent: -1, FuncID: id}, n)
	pt.nodes[n].pts.add(oid) // a function expression points at its own object
	pt.valOf[oid] = n
	return n
}

// paramNode / resultNode key a declared function's parameters and results
// by FuncID and index so call sites in any package bind to one node.
func (pt *PointsTo) paramNode(funcID string, i int) int {
	return pt.keyedNode(fmt.Sprintf("P:%s:%d", funcID, i))
}
func (pt *PointsTo) resultNode(funcID string, i int) int {
	return pt.keyedNode(fmt.Sprintf("R:%s:%d", funcID, i))
}

// ---------------------------------------------------------------------------
// Constraint emission

// copyEdge adds the subset edge pts(dst) ⊇ pts(src), once: the current
// members of src flow immediately, later arrivals flow as deltas when
// src is reprocessed. Deduplication matters — complex constraints try to
// re-add the same edge every time a new pointee shows up at their base.
func (pt *PointsTo) copyEdge(dst, src int) {
	if dst == src {
		return
	}
	key := uint64(src)<<32 | uint64(uint32(dst))
	if _, ok := pt.edges[key]; ok {
		return
	}
	pt.edges[key] = struct{}{}
	pt.nodes[src].copies = append(pt.nodes[src].copies, dst)
	d := pt.nodes[dst]
	grew := false
	for o := range pt.nodes[src].pts {
		if d.pts.add(o) {
			grew = true
		}
	}
	if grew {
		pt.dirty(dst)
	}
}

func (pt *PointsTo) load(dst, base int, field string) {
	c := derefC{field: field, node: dst}
	pt.nodes[base].loads = append(pt.nodes[base].loads, c)
	for _, o := range pt.nodes[base].pts.sorted() {
		pt.applyLoad(o, c)
	}
}

func (pt *PointsTo) store(base int, field string, src int) {
	c := derefC{field: field, node: src}
	pt.nodes[base].stores = append(pt.nodes[base].stores, c)
	for _, o := range pt.nodes[base].pts.sorted() {
		pt.applyStore(o, c)
	}
}

func (pt *PointsTo) addrOfField(dst, base int, field string) {
	c := derefC{field: field, node: dst}
	pt.nodes[base].addrs = append(pt.nodes[base].addrs, c)
	for _, o := range pt.nodes[base].pts.sorted() {
		pt.applyAddr(o, c)
	}
}

// applyLoad materializes one (pointee, load) pair. Loads from Unknown
// yield Unknown itself, not its accumulated contents: the universal
// object *summarizes* everything that escaped, so spreading the full
// escape record through every load would melt the solver for zero
// precision ("points to Unknown" already means "cannot prove").
func (pt *PointsTo) applyLoad(o int, c derefC) {
	if o == pt.unknownObj {
		pt.addObj(c.node, pt.unknownObj)
		return
	}
	pt.copyEdge(c.node, pt.cell(o, c.field))
}

// applyStore materializes one (pointee, store) pair. Stores into Unknown
// feed the escape record (Unknown's direct value), whatever the field.
func (pt *PointsTo) applyStore(o int, c derefC) {
	pt.copyEdge(pt.cell(o, c.field), c.node)
}

func (pt *PointsTo) applyAddr(o int, c derefC) {
	if o == pt.unknownObj {
		pt.addObj(c.node, pt.unknownObj)
		return
	}
	cellNode := pt.cell(o, c.field)
	oid := pt.nodes[cellNode].obj
	if oid < 0 {
		oid = pt.unknownObj
	}
	pt.addObj(c.node, oid)
}

func (pt *PointsTo) addObj(node, obj int) {
	if pt.nodes[node].pts.add(obj) {
		pt.dirty(node)
	}
}

func (pt *PointsTo) dirty(n int) {
	if pt.inWk == nil {
		return // still generating; solve() seeds the full worklist
	}
	if n >= len(pt.inWk) {
		// The solver materializes field/elem nodes lazily as points-to
		// sets grow; keep the membership bitmap in step.
		grown := make([]bool, len(pt.nodes))
		copy(grown, pt.inWk)
		pt.inWk = grown
	}
	if !pt.inWk[n] {
		pt.inWk[n] = true
		pt.work = append(pt.work, n)
	}
}

// ---------------------------------------------------------------------------
// Generation: walk every declared function (and package-level initializer)
// of every analyzed package, seeding constraints per function.

// genCtx carries one function's generation state.
type genCtx struct {
	pt   *PointsTo
	pkg  *Package
	fid  string // enclosing declared function's FuncID ("" in init exprs)
	rets []int  // result nodes of the enclosing function (declared or literal)
}

func (pt *PointsTo) generate() {
	pt.prog.build()
	// Deterministic order: packages as loaded, files in order, decls in order.
	// _test.go files are out of scope: the analysis models the shipped tree
	// (the same boundary every simlint analyzer draws), and test variants
	// would both double the constraint graph and pollute parameter/receiver
	// points-to sets with test-only call contexts.
	for _, pkg := range pt.prog.Pkgs {
		for _, file := range pkg.Syntax {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					id := FuncID(fn)
					if id == "" {
						continue
					}
					if owner, ok := pt.prog.funcs[id]; ok && owner.pkg != pkg {
						continue // test-variant duplicate; the first (analyzed) view owns it
					}
					pt.genFunc(pkg, id, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						g := &genCtx{pt: pt, pkg: pkg}
						g.assignSpec(vs)
					}
				}
			}
		}
	}
}

// genFunc seeds one declared function: parameter plumbing, then the body.
func (pt *PointsTo) genFunc(pkg *Package, id string, d *ast.FuncDecl) {
	g := &genCtx{pt: pt, pkg: pkg, fid: id}
	// Bind the keyed parameter nodes to the declared parameter variables.
	idx := 0
	if d.Recv != nil && len(d.Recv.List) > 0 {
		for _, name := range d.Recv.List[0].Names {
			if obj := pkg.TypesInfo.Defs[name]; obj != nil {
				pt.copyEdge(pt.varNode(obj), pt.paramNode(id, idx))
			}
		}
		idx++
	}
	if d.Type.Params != nil {
		for _, f := range d.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, name := range f.Names {
				if obj := pkg.TypesInfo.Defs[name]; obj != nil {
					pt.copyEdge(pt.varNode(obj), pt.paramNode(id, idx))
				}
				idx++
			}
		}
	}
	// Results: named results are variables that flow to the result nodes.
	g.rets = nil
	ri := 0
	if d.Type.Results != nil {
		for _, f := range d.Type.Results.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			for j := 0; j < n; j++ {
				rn := pt.resultNode(id, ri)
				g.rets = append(g.rets, rn)
				if j < len(f.Names) {
					if obj := pkg.TypesInfo.Defs[f.Names[j]]; obj != nil {
						pt.copyEdge(rn, pt.varNode(obj))
					}
				}
				ri++
			}
		}
	}
	pt.funcNode(id, d.Pos(), pkg.TypesInfo.Defs[d.Name].Type())
	g.stmt(d.Body)
}

func (g *genCtx) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			g.stmt(t)
		}
	case *ast.IfStmt:
		g.stmt(s.Init)
		g.value(s.Cond)
		g.stmt(s.Body)
		g.stmt(s.Else)
	case *ast.ForStmt:
		g.stmt(s.Init)
		if s.Cond != nil {
			g.value(s.Cond)
		}
		g.stmt(s.Post)
		g.stmt(s.Body)
	case *ast.RangeStmt:
		g.rangeStmt(s)
	case *ast.SwitchStmt:
		g.stmt(s.Init)
		if s.Tag != nil {
			g.value(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				g.value(e)
			}
			for _, t := range cc.Body {
				g.stmt(t)
			}
		}
	case *ast.TypeSwitchStmt:
		g.typeSwitch(s)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			g.stmt(cc.Comm)
			for _, t := range cc.Body {
				g.stmt(t)
			}
		}
	case *ast.LabeledStmt:
		g.stmt(s.Stmt)
	case *ast.AssignStmt:
		g.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					g.assignSpec(vs)
				}
			}
		}
	case *ast.ExprStmt:
		g.value(s.X)
	case *ast.SendStmt:
		ch := g.value(s.Chan)
		v := g.value(s.Value)
		g.pt.store(ch, "$elem", v)
	case *ast.ReturnStmt:
		for i, r := range s.Results {
			v := g.value(r)
			if i < len(g.rets) {
				g.pt.copyEdge(g.rets[i], v)
			}
		}
		// `return f()` forwarding a multi-result call.
		if len(s.Results) == 1 && len(g.rets) > 1 {
			if call, ok := s.Results[0].(*ast.CallExpr); ok {
				for i, rn := range g.callResults(call) {
					if i < len(g.rets) {
						g.pt.copyEdge(g.rets[i], rn)
					}
				}
			}
		}
	case *ast.GoStmt:
		g.value(s.Call)
	case *ast.DeferStmt:
		g.value(s.Call)
	case *ast.IncDecStmt:
		g.value(s.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (g *genCtx) rangeStmt(s *ast.RangeStmt) {
	base := g.container(s.X)
	bind := func(e ast.Expr, field string) {
		if e == nil {
			return
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := g.objOf(id); obj != nil {
				g.pt.load(g.pt.varNode(obj), base, field)
				return
			}
		}
		// Ranging into an existing lvalue (rare): store through it.
		tmp := g.pt.newNode()
		g.pt.load(tmp, base, field)
		g.assignTo(e, tmp)
	}
	t := g.pkg.TypesInfo.Types[s.X].Type
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			bind(s.Key, "$key")
			bind(s.Value, "$elem")
		default: // slice, array, channel, string
			bind(s.Value, "$elem")
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				bind(s.Key, "$elem")
			}
		}
	}
	g.stmt(s.Body)
}

func (g *genCtx) typeSwitch(s *ast.TypeSwitchStmt) {
	g.stmt(s.Init)
	var operand int = -1
	// `y := x.(type)` — find the asserted operand.
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
			operand = g.value(ta.X)
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			operand = g.value(ta.X)
		}
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		// The per-case binding aliases the operand.
		if obj, ok := g.pkg.TypesInfo.Implicits[cc].(*types.Var); ok && operand >= 0 {
			g.pt.copyEdge(g.pt.varNode(obj), operand)
		}
		for _, t := range cc.Body {
			g.stmt(t)
		}
	}
}

func (g *genCtx) assignSpec(vs *ast.ValueSpec) {
	switch {
	case len(vs.Values) == len(vs.Names):
		for i, name := range vs.Names {
			v := g.value(vs.Values[i])
			if name.Name == "_" {
				continue
			}
			if obj := g.pkg.TypesInfo.Defs[name]; obj != nil {
				g.pt.copyEdge(g.pt.varNode(obj), v)
			}
		}
	case len(vs.Values) == 1 && len(vs.Names) > 1:
		if call, ok := vs.Values[0].(*ast.CallExpr); ok {
			rets := g.callResults(call)
			for i, name := range vs.Names {
				if name.Name == "_" || i >= len(rets) {
					continue
				}
				if obj := g.pkg.TypesInfo.Defs[name]; obj != nil {
					g.pt.copyEdge(g.pt.varNode(obj), rets[i])
				}
			}
		} else {
			g.value(vs.Values[0])
		}
	}
}

func (g *genCtx) assign(s *ast.AssignStmt) {
	switch {
	case len(s.Lhs) == len(s.Rhs):
		for i := range s.Lhs {
			g.assignTo(s.Lhs[i], g.value(s.Rhs[i]))
		}
	case len(s.Rhs) == 1:
		var rets []int
		switch r := s.Rhs[0].(type) {
		case *ast.CallExpr:
			rets = g.callResults(r)
		case *ast.TypeAssertExpr:
			rets = []int{g.value(r)} // v, ok := x.(T)
		case *ast.IndexExpr:
			rets = []int{g.value(r)} // v, ok := m[k]
		case *ast.UnaryExpr:
			rets = []int{g.value(r)} // v, ok := <-ch
		default:
			rets = []int{g.value(s.Rhs[0])}
		}
		for i, l := range s.Lhs {
			if i < len(rets) {
				g.assignTo(l, rets[i])
			} else {
				g.assignTo(l, -1)
			}
		}
	}
}

// assignTo flows value node src (or nothing when src < 0) into lvalue l.
func (g *genCtx) assignTo(l ast.Expr, src int) {
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := g.objOf(l); obj != nil && src >= 0 {
			g.pt.copyEdge(g.pt.varNode(obj), src)
		}
	case *ast.SelectorExpr:
		base := g.owners(l.X)
		if src >= 0 {
			g.pt.store(base, l.Sel.Name, src)
			g.structStore(base, l.Sel.Name, l, src)
		}
	case *ast.IndexExpr:
		base := g.container(l.X)
		g.value(l.Index)
		if src >= 0 {
			g.pt.store(base, "$elem", src)
			if t := g.pkg.TypesInfo.Types[l.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					g.pt.store(base, "$key", g.value(l.Index))
				}
			}
		}
	case *ast.StarExpr:
		base := g.value(l.X)
		if src >= 0 {
			g.pt.store(base, "", src)
			g.structStore(base, "", l, src)
		}
	case *ast.ParenExpr:
		g.assignTo(l.X, src)
	default:
		g.value(l)
	}
}

// structStore spreads a struct-valued assignment field-wise: for
// `*p = v` / `x.f = v` where v is a struct value, the pointer-carrying
// fields of v flow into the corresponding field cells of the target
// objects. Without this, whole-record copies (heap entries, engine
// construction `*e = unitEngine{...}`) would lose their pointers.
func (g *genCtx) structStore(base int, field string, l ast.Expr, src int) {
	t := g.pkg.TypesInfo.Types[l].Type
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !pointerish(f.Type()) {
			continue
		}
		// contents(target.field.f) ⊇ contents(src-objects.f)
		tmp := g.pt.newNode()
		g.pt.load(tmp, src, f.Name())
		if field == "" {
			g.pt.store(base, f.Name(), tmp)
		} else {
			// Address the intermediate field object, then store into it.
			mid := g.pt.newNode()
			g.pt.addrOfField(mid, base, field)
			g.pt.store(mid, f.Name(), tmp)
		}
	}
}

// pointerish reports whether values of t can carry pointers the analysis
// tracks.
func pointerish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerish(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return pointerish(u.Elem())
	}
	return false
}

// objOf resolves an identifier to its object (def or use).
func (g *genCtx) objOf(id *ast.Ident) types.Object {
	if obj := g.pkg.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return g.pkg.TypesInfo.Uses[id]
}

// value evaluates an expression to the node holding its (pointer) value.
func (g *genCtx) value(e ast.Expr) int {
	if e == nil {
		return g.pt.newNode()
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.objOf(e)
		switch o := obj.(type) {
		case *types.Var:
			return g.pt.varNode(o)
		case *types.Func:
			return g.pt.funcNode(FuncID(o), o.Pos(), o.Type())
		case *types.Nil, *types.Const, nil:
			return g.pt.newNode()
		}
		return g.pt.newNode()
	case *ast.ParenExpr:
		return g.value(e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			return g.addr(e.X)
		case token.ARROW:
			tmp := g.pt.newNode()
			g.pt.load(tmp, g.value(e.X), "$elem")
			return tmp
		default:
			g.value(e.X)
			return g.pt.newNode()
		}
	case *ast.StarExpr:
		tmp := g.pt.newNode()
		g.pt.load(tmp, g.value(e.X), "")
		return tmp
	case *ast.SelectorExpr:
		return g.selector(e)
	case *ast.IndexExpr:
		// Generic instantiation of a function: F[T] used as a value.
		if fn, ok := g.pkg.TypesInfo.Uses[baseIdent(e.X)].(*types.Func); ok {
			return g.pt.funcNode(FuncID(fn), fn.Pos(), fn.Type())
		}
		g.value(e.Index)
		tmp := g.pt.newNode()
		g.pt.load(tmp, g.container(e.X), "$elem")
		return tmp
	case *ast.IndexListExpr:
		if fn, ok := g.pkg.TypesInfo.Uses[baseIdent(e.X)].(*types.Func); ok {
			return g.pt.funcNode(FuncID(fn), fn.Pos(), fn.Type())
		}
		return g.pt.newNode()
	case *ast.SliceExpr:
		return g.value(e.X) // a reslice aliases the same backing object
	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return g.value(e.X)
		}
		return g.value(e.X) // assertion preserves identity
	case *ast.CallExpr:
		rets := g.callResults(e)
		if len(rets) > 0 {
			return rets[0]
		}
		return g.pt.newNode()
	case *ast.CompositeLit:
		return g.composite(e, false)
	case *ast.FuncLit:
		return g.funcLit(e)
	case *ast.BinaryExpr:
		g.value(e.X)
		g.value(e.Y)
		return g.pt.newNode()
	case *ast.KeyValueExpr:
		return g.value(e.Value)
	case *ast.BasicLit:
		return g.pt.newNode()
	}
	return g.pt.newNode()
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return &ast.Ident{}
		}
	}
}

// selector evaluates x.f as a value: package-qualified references,
// method values, and field loads.
func (g *genCtx) selector(e *ast.SelectorExpr) int {
	switch obj := g.pkg.TypesInfo.Uses[e.Sel].(type) {
	case *types.Func:
		fn := g.pt.funcNode(FuncID(obj), obj.Pos(), obj.Type())
		if _, isPkg := g.pkg.TypesInfo.Uses[baseIdent(e.X)].(*types.PkgName); !isPkg {
			g.value(e.X) // method value: the receiver escapes into the bound value
		}
		return fn
	case *types.Var:
		if !obj.IsField() {
			return g.pt.varNode(obj) // pkg.Var
		}
	case *types.Const, *types.TypeName:
		return g.pt.newNode()
	}
	tmp := g.pt.newNode()
	g.pt.load(tmp, g.owners(e.X), e.Sel.Name)
	return tmp
}

// addr evaluates &x.
func (g *genCtx) addr(x ast.Expr) int {
	switch x := x.(type) {
	case *ast.Ident:
		if obj := g.objOf(x); obj != nil {
			if v, ok := obj.(*types.Var); ok {
				n := g.pt.newNode()
				storage := g.pt.storageNode(v, v.Name())
				g.pt.addObj(n, g.pt.nodes[storage].obj)
				return n
			}
		}
		return g.pt.newNode()
	case *ast.SelectorExpr:
		tmp := g.pt.newNode()
		g.pt.addrOfField(tmp, g.owners(x.X), x.Sel.Name)
		return tmp
	case *ast.IndexExpr:
		g.value(x.Index)
		tmp := g.pt.newNode()
		g.pt.addrOfField(tmp, g.container(x.X), "$elem")
		return tmp
	case *ast.CompositeLit:
		return g.composite(x, true)
	case *ast.ParenExpr:
		return g.addr(x.X)
	case *ast.StarExpr:
		return g.value(x.X) // &*p == p
	}
	g.value(x)
	return g.pt.newNode()
}

// owners evaluates the base of a field access to the node whose points-to
// set is the *objects owning the field*: for a pointer base that is its
// value; for a struct-valued variable it is the variable's storage
// object; for chained value fields it is the field object.
func (g *genCtx) owners(x ast.Expr) int {
	t := g.pkg.TypesInfo.Types[x].Type
	if t != nil {
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return g.value(x)
		}
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			return g.value(x)
		}
	}
	return g.addr(x)
}

// container evaluates the base of an index/range to the node whose
// points-to set holds the container *objects* (backing arrays, maps).
// Slices and maps are reference values; arrays are storage.
func (g *genCtx) container(x ast.Expr) int {
	t := g.pkg.TypesInfo.Types[x].Type
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Array:
			return g.addr(x)
		case *types.Pointer: // *[N]T auto-indexes
			return g.value(x)
		}
	}
	return g.value(x)
}

// composite evaluates a composite literal: a fresh allocation site whose
// fields/elements receive the element expressions.
func (g *genCtx) composite(e *ast.CompositeLit, addressed bool) int {
	t := g.pkg.TypesInfo.Types[e].Type
	label := "composite"
	if t != nil {
		label = types.TypeString(t, func(p *types.Package) string { return p.Name() })
		if addressed {
			label = "&" + label + "{}"
		} else {
			label = label + "{}"
		}
	}
	n := g.pt.newNode()
	id := g.pt.newObj(&PObj{Kind: ObjAlloc, Pos: e.Pos(), Type: t, Label: label, Parent: -1}, n)
	res := g.pt.newNode()
	g.pt.addObj(res, id)

	var st *types.Struct
	if t != nil {
		st, _ = t.Underlying().(*types.Struct)
	}
	for i, el := range e.Elts {
		switch kv := el.(type) {
		case *ast.KeyValueExpr:
			field := "$elem"
			if key, ok := kv.Key.(*ast.Ident); ok && st != nil {
				field = key.Name
			} else {
				g.value(kv.Key)
				if t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						g.pt.store(res, "$key", g.value(kv.Key))
					}
				}
			}
			g.pt.store(res, field, g.value(kv.Value))
		default:
			field := "$elem"
			if st != nil && i < st.NumFields() {
				field = st.Field(i).Name()
			}
			g.pt.store(res, field, g.value(el))
		}
	}
	return res
}

func (g *genCtx) funcLit(e *ast.FuncLit) int {
	n := g.pt.funcNode("", e.Pos(), g.pkg.TypesInfo.Types[e].Type)
	// The literal's body is generated in the enclosing namespace: free
	// variables share their nodes, so effects inside the literal are
	// modeled wherever it syntactically appears. Its parameters receive
	// Unknown only if the literal escapes to an unresolved call (solve()).
	sub := &genCtx{pt: g.pt, pkg: g.pkg, fid: g.fid}
	if e.Type.Results != nil {
		for range e.Type.Results.List {
			sub.rets = append(sub.rets, g.pt.newNode())
		}
	}
	sub.stmt(e.Body)
	return n
}

// ---------------------------------------------------------------------------
// Calls

// callResults emits a call's constraints and returns its result nodes.
func (g *genCtx) callResults(call *ast.CallExpr) []int {
	// Builtins and conversions first.
	if rets, ok := g.builtinOrConversion(call); ok {
		return rets
	}
	// Static resolution: a declared function in the analyzed packages.
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = g.pkg.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = g.pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
	case *ast.ParenExpr:
		return g.callResultsFun(call, fun.X)
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			callee, _ = g.pkg.TypesInfo.Uses[id].(*types.Func)
		}
	}
	if callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok {
			if recv := sig.Recv(); recv != nil {
				if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
					return g.unresolvedCall(call) // interface dispatch
				}
			}
		}
		id := FuncID(callee)
		if f, ok := g.pt.prog.funcs[id]; ok && f.decl != nil {
			return g.resolvedCall(call, callee, id)
		}
		return g.unresolvedCall(call) // external (stdlib) function
	}
	// Dynamic call through a function value.
	return g.unresolvedCallFun(call, call.Fun)
}

func (g *genCtx) callResultsFun(call *ast.CallExpr, fun ast.Expr) []int {
	inner := *call
	inner.Fun = fun
	return g.callResults(&inner)
}

func (g *genCtx) resolvedCall(call *ast.CallExpr, callee *types.Func, id string) []int {
	sig := callee.Type().(*types.Signature)
	idx := 0
	if sig.Recv() != nil {
		// Method call: bind the receiver.
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvNode := g.value(sel.X)
			if !isPointerType(sig.Recv().Type()) {
				// Value receiver on an addressable base: the method sees a
				// copy; pointer-carrying flows still travel with it.
				recvNode = g.owners(sel.X)
			} else if t := g.pkg.TypesInfo.Types[sel.X].Type; t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
					recvNode = g.owners(sel.X) // auto &x for pointer receiver
				}
			}
			g.pt.copyEdge(g.pt.paramNode(id, 0), recvNode)
		}
		idx = 1
	}
	params := sig.Params()
	for i, a := range call.Args {
		v := g.value(a)
		pi := idx + i
		if sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos {
			// Packed variadic: args flow into the variadic slice's payload.
			pn := g.pt.paramNode(id, idx+params.Len()-1)
			g.pt.store(pn, "$elem", v)
			continue
		}
		if i >= params.Len() {
			pi = idx + params.Len() - 1
		}
		g.pt.copyEdge(g.pt.paramNode(id, pi), v)
	}
	n := sig.Results().Len()
	rets := make([]int, n)
	for i := 0; i < n; i++ {
		rets[i] = g.pt.resultNode(id, i)
	}
	return rets
}

// unresolvedCall handles calls the analysis cannot see through: every
// pointer-carrying argument (and receiver) escapes into Unknown, and the
// results are Unknown.
func (g *genCtx) unresolvedCall(call *ast.CallExpr) []int {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := g.pkg.TypesInfo.Uses[baseIdent(sel.X)].(*types.PkgName); !isPkg {
			g.escape(g.value(sel.X))
		}
	}
	for _, a := range call.Args {
		g.escape(g.value(a))
	}
	return g.unknownResults(call)
}

func (g *genCtx) unresolvedCallFun(call *ast.CallExpr, fun ast.Expr) []int {
	g.escape(g.value(fun))
	for _, a := range call.Args {
		g.escape(g.value(a))
	}
	return g.unknownResults(call)
}

func (g *genCtx) unknownResults(call *ast.CallExpr) []int {
	n := 1
	if tv, ok := g.pkg.TypesInfo.Types[call]; ok && tv.Type != nil {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			n = tuple.Len()
		}
	}
	rets := make([]int, n)
	for i := range rets {
		rets[i] = g.pt.unknownNode
	}
	return rets
}

// escape flows a value into Unknown's contents (the escape record). A
// direct copy edge, NOT a store constraint: a store on the unknown hub
// would be re-applied for every object that ever escapes, spreading the
// value into every escaped object's cell — quadratic work for precision
// the Unknown summary already forfeits.
func (g *genCtx) escape(v int) {
	if v == g.pt.unknownNode {
		return
	}
	g.pt.copyEdge(g.pt.unknownNode, v)
}

func (g *genCtx) builtinOrConversion(call *ast.CallExpr) ([]int, bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := g.pkg.TypesInfo.Uses[fun].(type) {
		case *types.Builtin:
			return g.builtin(obj.Name(), call), true
		case *types.TypeName:
			if len(call.Args) == 1 {
				return []int{g.value(call.Args[0])}, true // T(x) conversion
			}
		}
	case *ast.SelectorExpr:
		if _, ok := g.pkg.TypesInfo.Uses[fun.Sel].(*types.TypeName); ok {
			if len(call.Args) == 1 {
				return []int{g.value(call.Args[0])}, true // pkg.T(x)
			}
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr, *ast.FuncType, *ast.InterfaceType:
		if len(call.Args) == 1 {
			return []int{g.value(call.Args[0])}, true // []T(x) etc.
		}
	}
	return nil, false
}

func (g *genCtx) builtin(name string, call *ast.CallExpr) []int {
	switch name {
	case "new", "make":
		t := g.pkg.TypesInfo.Types[call].Type
		label := name
		if t != nil {
			label = name + "(" + types.TypeString(t, func(p *types.Package) string { return p.Name() }) + ")"
		}
		n := g.pt.newNode()
		id := g.pt.newObj(&PObj{Kind: ObjAlloc, Pos: call.Pos(), Type: t, Label: label, Parent: -1}, n)
		res := g.pt.newNode()
		g.pt.addObj(res, id)
		for _, a := range call.Args[1:] {
			g.value(a)
		}
		return []int{res}
	case "append":
		res := g.pt.newNode()
		base := g.value(call.Args[0])
		g.pt.copyEdge(res, base) // result aliases the original backing array...
		// ...or a grown copy: a fresh object whose payload includes the old.
		t := g.pkg.TypesInfo.Types[call].Type
		grown := g.pt.newObj(&PObj{Kind: ObjAlloc, Pos: call.Pos(), Type: t, Label: "append-growth", Parent: -1}, g.pt.newNode())
		g.pt.addObj(res, grown)
		old := g.pt.newNode()
		g.pt.load(old, base, "$elem")
		g.pt.store(res, "$elem", old)
		for _, a := range call.Args[1:] {
			if call.Ellipsis != token.NoPos {
				el := g.pt.newNode()
				g.pt.load(el, g.value(a), "$elem")
				g.pt.store(res, "$elem", el)
			} else {
				g.pt.store(res, "$elem", g.value(a))
			}
		}
		return []int{res}
	case "copy":
		if len(call.Args) == 2 {
			el := g.pt.newNode()
			g.pt.load(el, g.value(call.Args[1]), "$elem")
			g.pt.store(g.value(call.Args[0]), "$elem", el)
		}
		return []int{g.pt.newNode()}
	case "delete", "len", "cap", "close", "print", "println", "panic", "recover", "clear", "min", "max":
		for _, a := range call.Args {
			g.value(a)
		}
		if name == "recover" {
			return []int{g.pt.unknownNode}
		}
		return []int{g.pt.newNode()}
	default:
		for _, a := range call.Args {
			g.value(a)
		}
		return []int{g.pt.newNode()}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isPointerType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// ---------------------------------------------------------------------------
// Solver

func (pt *PointsTo) solve() {
	n := len(pt.nodes)
	pt.inWk = make([]bool, n)
	pt.work = pt.work[:0]
	for i := 0; i < n; i++ {
		pt.work = append(pt.work, i)
		pt.inWk[i] = true
	}
	for len(pt.work) > 0 {
		i := pt.work[0]
		pt.work = pt.work[1:]
		pt.inWk[i] = false
		pt.process(i)
	}
	// Escape post-pass, to fixpoint:
	//  - any object in the escape record has unanalyzable aliases, so its
	//    cells may be overwritten out of sight: every cell gains Unknown
	//    (cells materialized by the re-drain are caught next iteration);
	//  - parameters of any escaped function object receive Unknown (its
	//    callers are unanalyzable).
	changed := true
	for changed {
		changed = false
		for _, oid := range pt.nodes[pt.unknownNode].pts.sorted() {
			o := pt.objs[oid]
			if oid != pt.unknownObj {
				cells := []int{pt.valNode(oid)}
				for _, dk := range pt.derived[oid] {
					cells = append(cells, dk.node)
				}
				for _, cn := range cells {
					if pt.nodes[cn].pts.add(pt.unknownObj) {
						changed = true
						pt.dirty(cn)
					}
				}
			}
			if o.Kind != ObjFunc || o.FuncID == "" {
				continue
			}
			if f, ok := pt.prog.funcs[o.FuncID]; ok && f.decl != nil {
				np := countParams(f)
				for i := 0; i < np; i++ {
					p := pt.paramNode(o.FuncID, i)
					if pt.nodes[p].pts.add(pt.unknownObj) {
						changed = true
						pt.dirty(p)
					}
				}
			}
		}
		if changed {
			for len(pt.work) > 0 {
				i := pt.work[0]
				pt.work = pt.work[1:]
				pt.inWk[i] = false
				pt.process(i)
			}
		}
	}
}

func countParams(f *progFunc) int {
	n := 0
	if f.decl.Recv != nil {
		n++
	}
	if f.decl.Type.Params != nil {
		for _, fl := range f.decl.Type.Params.List {
			if len(fl.Names) == 0 {
				n++
			} else {
				n += len(fl.Names)
			}
		}
	}
	return n
}

// process propagates node i's points-to delta — the members that arrived
// since its last processing — along its constraints.
func (pt *PointsTo) process(i int) {
	nd := pt.nodes[i]
	if len(nd.pts) == len(nd.prop) {
		return
	}
	var delta []int
	for o := range nd.pts {
		if _, done := nd.prop[o]; !done {
			delta = append(delta, o)
			nd.prop.add(o)
		}
	}
	sort.Ints(delta) // node/object materialization order must be stable
	// Copy edges.
	for _, dst := range nd.copies {
		d := pt.nodes[dst]
		grew := false
		for _, o := range delta {
			if d.pts.add(o) {
				grew = true
			}
		}
		if grew {
			pt.dirty(dst)
		}
	}
	// Complex constraints: materialize cells for each new pointee.
	for _, c := range nd.loads {
		for _, o := range delta {
			pt.applyLoad(o, c)
		}
	}
	for _, c := range nd.stores {
		for _, o := range delta {
			pt.applyStore(o, c)
		}
	}
	for _, c := range nd.addrs {
		for _, o := range delta {
			pt.applyAddr(o, c)
		}
	}
}

// cell returns the node holding object o's named cell: "" is the direct
// value, anything else a field/elem node. Unknown has a single cell —
// the escape record — whatever the field.
func (pt *PointsTo) cell(o int, field string) int {
	if o == pt.unknownObj || field == "" {
		return pt.valNode(o)
	}
	return pt.fieldNode(o, field)
}

// ---------------------------------------------------------------------------
// Queries

// VarPointsTo returns the objects a variable (or named function object)
// may point to, sorted by object id. The result is nil for untracked
// objects.
func (pt *PointsTo) VarPointsTo(obj types.Object) []*PObj {
	var n int
	switch o := obj.(type) {
	case *types.Var:
		n = pt.varNode(o)
	case *types.Func:
		n = pt.funcNode(FuncID(o), o.Pos(), o.Type())
	default:
		return nil
	}
	return pt.nodeObjs(n)
}

func (pt *PointsTo) nodeObjs(n int) []*PObj {
	ids := pt.nodes[n].pts.sorted()
	out := make([]*PObj, 0, len(ids))
	for _, id := range ids {
		out = append(out, pt.objs[id])
	}
	return out
}

// MayAlias reports whether two variables may point at a common object.
func (pt *PointsTo) MayAlias(a, b types.Object) bool {
	pa := pt.nodes[pt.varNode(a)].pts
	pb := pt.nodes[pt.varNode(b)].pts
	if len(pb) < len(pa) {
		pa, pb = pb, pa
	}
	for o := range pa {
		if _, ok := pb[o]; ok {
			return true
		}
	}
	return false
}

// PointsToUnknown reports whether the variable may point at the
// universal unknown object (escaped through an unresolved call).
func (pt *PointsTo) PointsToUnknown(obj types.Object) bool {
	_, ok := pt.nodes[pt.varNode(obj)].pts[pt.unknownObj]
	return ok
}

// Reachable computes the objects transitively reachable from the given
// variables' points-to sets by following field and element cells. The
// optional cut predicate prunes traversal: when cut(obj, field) reports
// true the cell is not followed (a client may cut at deliberately shared
// fields or backrefs). Field and element
// objects themselves are included. The result is keyed by object id.
func (pt *PointsTo) Reachable(roots []types.Object, cut func(o *PObj, field string) bool) map[int]*PObj {
	out := make(map[int]*PObj)
	var queue []int
	push := func(id int) {
		if _, ok := out[id]; ok {
			return
		}
		out[id] = pt.objs[id]
		queue = append(queue, id)
	}
	for _, r := range roots {
		for _, id := range pt.nodes[pt.varNode(r)].pts.sorted() {
			push(id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		o := pt.objs[id]
		// Follow every materialized cell of the object.
		cells := append([]derefKey(nil), pt.derived[id]...)
		sort.Slice(cells, func(i, j int) bool { return cells[i].field < cells[j].field })
		for _, c := range cells {
			if cut != nil && cut(o, c.field) {
				continue
			}
			if cellObj := pt.nodes[c.node].obj; cellObj >= 0 {
				push(cellObj)
			}
			for _, t := range pt.nodes[c.node].pts.sorted() {
				push(t)
			}
		}
		if v, ok := pt.valOf[id]; ok {
			if cut == nil || !cut(o, "") {
				for _, t := range pt.nodes[v].pts.sorted() {
					push(t)
				}
			}
		}
	}
	return out
}

// LValueTargets resolves an assignment target to the (object, cell) pairs
// a store through it may write. A nil field means the object's direct
// value (a *p = ... store).
type LValueTarget struct {
	Obj   *PObj
	Field string
}

// WriteTargets returns the abstract cells an lvalue may store into,
// sorted deterministically. Identifier targets (plain locals) return nil
// — a local rebind is not a store into shared state.
func (pt *PointsTo) WriteTargets(pkg *Package, l ast.Expr) []LValueTarget {
	g := &genCtx{pt: pt, pkg: pkg}
	var base int
	var field string
	switch l := unparen(l).(type) {
	case *ast.SelectorExpr:
		if obj := pkg.TypesInfo.Uses[l.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				// pkg.Var = x: the global's storage object.
				n := pt.varNode(v)
				if oid := pt.nodes[n].obj; oid >= 0 {
					return []LValueTarget{{Obj: pt.objs[oid], Field: ""}}
				}
				return nil
			}
		}
		base = g.owners(l.X)
		field = l.Sel.Name
	case *ast.IndexExpr:
		base = g.container(l.X)
		field = "$elem"
	case *ast.StarExpr:
		base = g.value(l.X)
		field = ""
	case *ast.Ident:
		if v, ok := pkg.TypesInfo.Uses[l].(*types.Var); ok {
			n := pt.varNode(v)
			if oid := pt.nodes[n].obj; oid >= 0 {
				return []LValueTarget{{Obj: pt.objs[oid], Field: ""}}
			}
		}
		return nil
	default:
		return nil
	}
	pt.resolveQuery(base)
	ids := pt.nodes[base].pts.sorted()
	out := make([]LValueTarget, 0, len(ids))
	for _, id := range ids {
		out = append(out, LValueTarget{Obj: pt.objs[id], Field: field})
	}
	return out
}

// resolveQuery re-runs the solver over any nodes a query-time evaluation
// created (query evaluators add fresh temp nodes with load/addr
// constraints; their inputs are already solved, so one pass suffices —
// but nested chains need the worklist).
func (pt *PointsTo) resolveQuery(n int) {
	pt.dirty(n)
	// Process every node that has pending work (query chains mark their
	// dependencies dirty through copyEdge/load emission).
	for len(pt.work) > 0 {
		i := pt.work[0]
		pt.work = pt.work[1:]
		pt.inWk[i] = false
		pt.process(i)
	}
}

// String renders an object for diagnostics.
func (o *PObj) String() string {
	return fmt.Sprintf("%s %s", o.Kind, o.Label)
}
