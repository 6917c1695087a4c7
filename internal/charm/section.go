package charm

import (
	"fmt"
	"sort"

	"charmgo/internal/converse"
)

// Section is a CHARM++ array section: a fixed subset of an array's
// elements that can be multicast to through a spanning tree over the
// members' PEs. One message travels per tree edge; each PE then invokes
// the entry on its local members, so a multicast to k elements on p PEs
// costs O(p) messages instead of O(k).
//
// Sections snapshot element placement at creation; migrating a member
// afterwards leaves the section delivering to its old PE's local list
// (real CHARM++ rebuilds section trees after load balancing — callers
// here should recreate sections after GreedyRebalance).
type Section struct {
	arr   *Array
	id    int
	pes   []int         // sorted unique member PEs
	local map[int][]int // pe -> member element indices
}

// sectionFanout is the multicast tree arity.
const sectionFanout = 4

// NewSection builds a section over the given element indices.
func (a *Array) NewSection(elems []int) *Section {
	if len(elems) == 0 {
		panic("charm: NewSection with no elements")
	}
	s := &Section{
		arr:   a,
		id:    len(a.rt.sections),
		local: make(map[int][]int),
	}
	seen := make(map[int]bool)
	for _, idx := range elems {
		if idx < 0 || idx >= a.n {
			panic(fmt.Sprintf("charm: section element %d out of range", idx))
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		pe := a.peOf[idx]
		if len(s.local[pe]) == 0 {
			s.pes = append(s.pes, pe)
		}
		s.local[pe] = append(s.local[pe], idx)
	}
	sort.Ints(s.pes)
	for _, members := range s.local {
		sort.Ints(members)
	}
	a.rt.sections = append(a.rt.sections, s)
	return s
}

// Members reports the number of member elements.
func (s *Section) Members() int {
	n := 0
	for _, m := range s.local {
		n += len(m)
	}
	return n
}

// PEs reports the number of distinct member PEs.
func (s *Section) PEs() int { return len(s.pes) }

// sectionMsg travels down the multicast tree. pos is the receiving PE's
// position in the section's PE list.
type sectionMsg struct {
	section int
	entry   int
	arg     any
	size    int
	pos     int
}

// Multicast invokes entry with arg on every member element. The message
// fans out over a sectionFanout-ary tree across the member PEs, then each
// PE executes its local members in index order.
func (s *Section) Multicast(ctx *converse.Ctx, entry int, arg any, size int) {
	msg := &sectionMsg{section: s.id, entry: entry, arg: arg, size: size, pos: 0}
	ctx.Send(s.pes[0], s.arr.rt.section, msg, size)
}

// onSectionMsg forwards down the tree and delivers locally.
func (rt *Runtime) onSectionMsg(ctx *converse.Ctx, m *sectionMsg) {
	s := rt.sections[m.section]
	for i := 1; i <= sectionFanout; i++ {
		child := m.pos*sectionFanout + i
		if child >= len(s.pes) {
			break
		}
		fwd := *m
		fwd.pos = child
		ctx.Send(s.pes[child], rt.section, &fwd, m.size)
	}
	pe := s.pes[m.pos]
	if pe != ctx.PE() {
		panic(fmt.Sprintf("charm: section message for PE %d executed on %d", pe, ctx.PE()))
	}
	for _, idx := range s.local[pe] {
		s.arr.execute(ctx, idx, m.entry, m.arg)
	}
}
