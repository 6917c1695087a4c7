package framework

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// loadPTA loads the pta fixture package and returns its solved analysis
// plus the package for object lookup.
func loadPTA(t *testing.T) (*PointsTo, *Package) {
	t.Helper()
	l := NewLoader(".")
	l.Overlay = "testdata/pta"
	pkgs, err := l.LoadFixture("pta")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(pkgs)
	return prog.PointsTo(), pkgs[0]
}

// lookupVar finds a local variable by function scope walk, or a
// package-level one directly.
func lookupVar(t *testing.T, pkg *Package, fn, name string) types.Object {
	t.Helper()
	if fn == "" {
		if o := pkg.Types.Scope().Lookup(name); o != nil {
			return o
		}
		t.Fatalf("package var %s not found", name)
	}
	fo := pkg.Types.Scope().Lookup(fn)
	if fo == nil {
		t.Fatalf("func %s not found", fn)
	}
	scope := fo.(*types.Func).Scope()
	if o := deepLookup(scope, name); o != nil {
		return o
	}
	t.Fatalf("var %s not found in %s", name, fn)
	return nil
}

func deepLookup(s *types.Scope, name string) types.Object {
	if o := s.Lookup(name); o != nil {
		return o
	}
	for i := 0; i < s.NumChildren(); i++ {
		if o := deepLookup(s.Child(i), name); o != nil {
			return o
		}
	}
	return nil
}

func labels(objs []*PObj) string {
	var out []string
	for _, o := range objs {
		out = append(out, o.Label)
	}
	return strings.Join(out, ", ")
}

func TestPTADistinctSites(t *testing.T) {
	pt, pkg := loadPTA(t)
	a := lookupVar(t, pkg, "Distinct", "a")
	b := lookupVar(t, pkg, "Distinct", "b")
	c := lookupVar(t, pkg, "Distinct", "c")
	if pt.MayAlias(a, b) {
		t.Errorf("a and b are distinct sites but MayAlias: a=%s b=%s",
			labels(pt.VarPointsTo(a)), labels(pt.VarPointsTo(b)))
	}
	if !pt.MayAlias(a, c) {
		t.Errorf("c = a but !MayAlias: a=%s c=%s",
			labels(pt.VarPointsTo(a)), labels(pt.VarPointsTo(c)))
	}
	if pt.PointsToUnknown(a) {
		t.Errorf("a never escapes but points to Unknown")
	}
}

func TestPTAFieldSensitivity(t *testing.T) {
	pt, pkg := loadPTA(t)
	r := lookupVar(t, pkg, "Fields", "r")
	reach := pt.Reachable([]types.Object{r}, nil)
	var hs, ts bool
	for _, o := range reach {
		if o.Kind == ObjField && o.Field == "head" {
			hs = true
		}
		if o.Kind == ObjField && o.Field == "tail" {
			ts = true
		}
	}
	if !hs || !ts {
		t.Errorf("head/tail field objects not both reachable (head=%v tail=%v)", hs, ts)
	}
	// The two field cells must hold different allocation sites.
	var ring *PObj
	for _, o := range pt.VarPointsTo(r) {
		ring = o
	}
	if ring == nil {
		t.Fatal("r points at nothing")
	}
	head := pt.nodeObjs(pt.fieldNode(ring.ID, "head"))
	tail := pt.nodeObjs(pt.fieldNode(ring.ID, "tail"))
	if len(head) != 1 || len(tail) != 1 {
		t.Fatalf("head=%s tail=%s, want one site each", labels(head), labels(tail))
	}
	if head[0].ID == tail[0].ID {
		t.Errorf("field-sensitivity lost: head and tail share a site")
	}
}

func TestPTAInterprocedural(t *testing.T) {
	pt, pkg := loadPTA(t)
	x := lookupVar(t, pkg, "ThroughCall", "x")
	y := lookupVar(t, pkg, "ThroughCall", "y")
	if !pt.MayAlias(x, y) {
		t.Errorf("y = identity(x) but !MayAlias: x=%s y=%s",
			labels(pt.VarPointsTo(x)), labels(pt.VarPointsTo(y)))
	}
	if pt.PointsToUnknown(y) {
		t.Errorf("identity is resolved; y should not reach Unknown")
	}
}

func TestPTAGlobals(t *testing.T) {
	pt, pkg := loadPTA(t)
	shared := lookupVar(t, pkg, "", "shared")
	objs := pt.VarPointsTo(shared)
	found := false
	for _, o := range objs {
		if o.Kind == ObjAlloc {
			found = true
		}
	}
	if !found {
		t.Errorf("shared should point at Publish's allocation, got %s", labels(objs))
	}
}

func TestPTAEscape(t *testing.T) {
	pt, pkg := loadPTA(t)
	e := lookupVar(t, pkg, "Escape", "e")
	// e is passed through a stored function value — an unresolved call —
	// so its pointee must be reachable from Unknown (it escaped), and the
	// analysis must say so conservatively.
	reachFromUnknown := false
	eObjs := pt.VarPointsTo(e)
	if len(eObjs) == 0 {
		t.Fatal("e points at nothing")
	}
	un := pt.Obj(pt.Unknown())
	reach := pt.Reachable([]types.Object{}, nil)
	_ = reach
	// Check via the unknown object's contents.
	for _, o := range pt.nodeObjs(pt.valNode(un.ID)) {
		for _, eo := range eObjs {
			if o.ID == eo.ID {
				reachFromUnknown = true
			}
		}
	}
	if !reachFromUnknown {
		t.Errorf("e escaped through hook(e) but is not in Unknown's contents")
	}
}

func TestPTASlices(t *testing.T) {
	pt, pkg := loadPTA(t)
	s1 := lookupVar(t, pkg, "Slices", "s1")
	s2 := lookupVar(t, pkg, "Slices", "s2")
	if pt.MayAlias(s1, s2) {
		t.Errorf("distinct slices alias: s1=%s s2=%s",
			labels(pt.VarPointsTo(s1)), labels(pt.VarPointsTo(s2)))
	}
	// Both payloads are reachable.
	r1 := pt.Reachable([]types.Object{s1}, nil)
	elems := 0
	for _, o := range r1 {
		if o.Kind == ObjAlloc && strings.Contains(o.Label, "Node") {
			elems++
		}
	}
	if elems == 0 {
		t.Errorf("s1's element objects not reachable")
	}
}

func TestPTAReachabilityAndCuts(t *testing.T) {
	pt, pkg := loadPTA(t)
	a := lookupVar(t, pkg, "Chain", "a")
	reach := pt.Reachable([]types.Object{a}, nil)
	allocs := 0
	for _, o := range reach {
		if o.Kind == ObjAlloc {
			allocs++
		}
	}
	if allocs < 3 {
		t.Errorf("chain of 3 nodes: reachable allocs = %d, want >= 3", allocs)
	}
	// Cutting at next stops the walk after the head.
	cut := pt.Reachable([]types.Object{a}, func(o *PObj, field string) bool {
		return field == "next"
	})
	cutAllocs := 0
	for _, o := range cut {
		if o.Kind == ObjAlloc {
			cutAllocs++
		}
	}
	if cutAllocs != 1 {
		t.Errorf("cut at next: reachable allocs = %d, want 1", cutAllocs)
	}
}

func TestPTACoordinatorCut(t *testing.T) {
	pt, pkg := loadPTA(t)
	c := lookupVar(t, pkg, "Build", "c")
	e := lookupVar(t, pkg, "Build", "e")
	// Without a cut, the owner backref makes the coordinator reachable
	// from the engine.
	full := pt.Reachable([]types.Object{e}, nil)
	coordSeen := false
	for _, o := range full {
		if o.Kind == ObjAlloc && strings.Contains(o.Label, "Coord") {
			coordSeen = true
		}
	}
	if !coordSeen {
		t.Fatalf("owner backref lost: Coord not reachable from Eng (%s)", labels(pt.VarPointsTo(c)))
	}
	// With the cut, it is not.
	cut := pt.Reachable([]types.Object{e}, func(o *PObj, field string) bool {
		return field == "owner"
	})
	for _, o := range cut {
		if o.Kind == ObjAlloc && strings.Contains(o.Label, "Coord") {
			t.Errorf("cut at owner, but Coord still reachable")
		}
	}
}

func TestPTAWriteTargets(t *testing.T) {
	pt, pkg := loadPTA(t)
	// Find the `r.head = ...` assignment in Fields and ask what it writes.
	found := false
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range assign.Lhs {
				for _, tg := range pt.WriteTargets(pkg, lhs) {
					if tg.Field == "head" {
						found = true
						if tg.Obj.Kind != ObjAlloc {
							t.Errorf("r.head write target kind = %s, want alloc", tg.Obj.Kind)
						}
					}
				}
			}
			return true
		})
	}
	if !found {
		t.Errorf("no write target with field head found")
	}
}
