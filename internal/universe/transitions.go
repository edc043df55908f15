package universe

import "hpl/internal/trace"

// Transitions is the prefix-extension transition graph of a universe:
// member i steps to member j exactly when computation j extends
// computation i by one event. On the prefix-closed universes produced by
// EnumerateWith this is the complete one-step reachability structure of
// the system — the substrate the temporal layer (internal/temporal)
// computes CTL fixpoints over. Because an extension appends exactly one
// event, every member has at most one predecessor (its one-event-shorter
// prefix), so the graph is a forest rooted at the computations whose
// prefix is not a member (just the null computation, when the universe
// is prefix closed).
//
// The graph is stored as columns over the prefix index: the parent
// array is the reverse relation, and because the prefix tree's level
// order keeps each member's children contiguous, the forward relation
// is one range of order positions per position, kept only up to the
// inner bound: past the last member with a child, every member is a
// leaf. Each edge is labelled with the process that performs the
// extending event, so per-process step relations need no event
// inspection. Transitions are immutable once built and
// safe for concurrent readers; build them through
// Universe.Transitions, which constructs the graph once from the
// universe's prefix index and shares it, alongside the Partition
// tables, between every evaluator over the universe.
//
// On a commutation quotient (WithCommutation) a member stands for a
// [D]-class, and one event may extend it to a class whose representative
// is not its child in the prefix tree. There the graph is a DAG: Succ,
// HasSucc and NumEdges read its successor lists (Successors), while
// Parent, Label and ChildRanges still describe the prefix tree alone.
type Transitions struct {
	// parent[j] is the member index of j's one-event-shorter prefix, or
	// -1 when that prefix is not a member of the universe.
	parent []int32
	// label[j] is the index (into procs) of the process whose event
	// extends parent[j] to j; -1 when j has no parent edge.
	label []int32
	// order lists member indexes in ascending event count, each
	// member's children contiguous: a topological order of the graph
	// (every edge adds one event), which lets the temporal fixpoints
	// run as single sweeps instead of iterating. It is the identity on
	// level-ordered universes.
	order []int32
	// pos inverts order (pos[order[k]] == k); nil when order is the
	// identity.
	pos []int32
	// kids[k] is the range of order positions holding the children of
	// the member at order position k. It stops at the inner bound: one
	// past the last position whose range is non-empty.
	kids  [][2]int32
	edges int
	// succOff and succ are a commutation quotient's successor lists; nil
	// on other universes.
	succOff, succ []int32
	// procs indexes the edge labels.
	procs []trace.ProcID
}

// Len reports the number of members (vertices).
func (t *Transitions) Len() int { return len(t.parent) }

// NumEdges reports the number of one-event-extension edges.
func (t *Transitions) NumEdges() int { return t.edges }

// Parent returns the member index of i's one-event-shorter prefix, or
// -1 when the prefix is not a member (only the null computation, on
// prefix-closed universes).
func (t *Transitions) Parent(i int) int { return int(t.parent[i]) }

// Label returns the process performing the event that extends
// Parent(i) to i; ok is false when i has no parent edge.
func (t *Transitions) Label(i int) (trace.ProcID, bool) {
	if t.label[i] < 0 {
		return "", false
	}
	return t.procs[t.label[i]], true
}

// span returns the range of order positions holding i's children.
func (t *Transitions) span(i int) [2]int32 {
	if t.pos != nil {
		i = int(t.pos[i])
	}
	if i >= len(t.kids) {
		return [2]int32{}
	}
	return t.kids[i]
}

// Succ returns the member indexes reached from i by one extension
// event, in the universe's sibling (hash) order — ascending, on
// level-ordered universes; on a commutation quotient, i's children come
// first and then the other classes it extends to. The slice aliases the
// graph and MUST be treated as read-only.
func (t *Transitions) Succ(i int) []int32 {
	if t.succOff != nil {
		return t.succ[t.succOff[i]:t.succOff[i+1]]
	}
	r := t.span(i)
	return t.order[r[0]:r[1]]
}

// HasSucc reports whether i has at least one extension in the universe
// (false exactly at the maximal computations of the event bound).
func (t *Transitions) HasSucc(i int) bool {
	if t.succOff != nil {
		return t.succOff[i] < t.succOff[i+1]
	}
	r := t.span(i)
	return r[0] < r[1]
}

// Order returns the member indexes in ascending event count — a
// topological order of the extension edges. The slice aliases the graph
// and MUST be treated as read-only.
func (t *Transitions) Order() []int32 { return t.order }

// Permuted reports whether Order may differ from the member order: true
// on New universes, false on enumerated and loaded ones, where member i
// sits at position i.
func (t *Transitions) Permuted() bool { return t.pos != nil }

// ChildRanges returns, for each position k of Order below the inner
// bound, the half-open range of positions holding the children of the
// member at position k (empty for a leaf). The inner bound,
// len(ChildRanges()), is one past the last position with a child, so
// every position from it on is a leaf. The slice aliases the graph and
// MUST be treated as read-only.
func (t *Transitions) ChildRanges() [][2]int32 { return t.kids }

// Successors returns a commutation quotient's successor lists: member
// i's successors are succ[off[i]:off[i+1]], all of them at the next
// level, so member order is a topological order. Both slices are nil on
// other universes, whose successors are ChildRanges. They alias the
// graph and MUST be treated as read-only.
func (t *Transitions) Successors() (off, succ []int32) { return t.succOff, t.succ }

// NewTransitions builds the prefix-extension graph of the universe
// without consulting or populating the universe's cache. Prefer
// Universe.Transitions, which builds the graph once and shares it;
// NewTransitions exists for the construction benchmark and for tests
// that need a fresh graph.
func NewTransitions(u *Universe) *Transitions {
	n := u.Len()
	procs := u.All().IDs()
	procIdx := make(map[trace.ProcID]int32, len(procs))
	for i, p := range procs {
		procIdx[p] = int32(i)
	}
	// The enumeration search tree IS this graph: the prefix index already
	// holds every member's parent, and the edge label is the process of
	// its last event.
	x := u.prefixIndex()
	evLabel := make([]int32, len(x.events))
	for e, ev := range x.events {
		evLabel[e] = -1
		if li, ok := procIdx[ev.Proc]; ok {
			evLabel[e] = li
		}
	}
	t := &Transitions{
		parent: x.parent,
		label:  make([]int32, n),
		order:  x.order,
		kids:   make([][2]int32, n),
		procs:  procs,
	}
	if t.order == nil {
		t.order = make([]int32, n)
		for i := range t.order {
			t.order[i] = int32(i)
		}
	} else {
		t.pos = make([]int32, n)
		for k, j := range t.order {
			t.pos[j] = int32(k)
		}
	}
	// A child never sits at position 0, ahead of its parent, so an
	// empty range marks a member whose children are still to come.
	inner := int32(0)
	for k, j := range t.order {
		t.label[j] = -1
		par := x.parent[j]
		if par < 0 {
			continue
		}
		t.label[j] = evLabel[x.event[j]]
		if t.pos != nil {
			par = t.pos[par]
		}
		r := &t.kids[par]
		if r[1] == 0 {
			r[0] = int32(k)
		}
		r[1] = int32(k) + 1
		inner = max(inner, par+1)
		t.edges++
	}
	t.kids = t.kids[:inner]
	if u.succOff != nil {
		t.succOff, t.succ, t.edges = u.succOff, u.succ, len(u.succ)
	}
	return t
}

// Transitions returns the universe's prefix-extension transition graph,
// building it on first use. Concurrent callers share one build.
func (u *Universe) Transitions() *Transitions {
	u.transOnce.Do(func() {
		u.prefixIndex() // a phase of its own, not part of this build's
		sp := u.tr.Start("transitions.build")
		u.trans = NewTransitions(u)
		phaseTransitions.ObserveDuration(sp.End())
	})
	return u.trans
}
