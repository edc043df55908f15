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
// The graph is stored as a CSR-style adjacency arena: a dense parent
// array is the reverse relation, and forward successor lists are laid
// out back to back in one slice, grouped by source and addressed by
// offsets. Each edge is labelled with the process that performs the
// extending event, so per-process step relations need no event
// inspection. Transitions are immutable once built and safe for
// concurrent readers; build them through Universe.Transitions, which
// constructs the graph once from the universe's prefix index and shares
// it, alongside the Partition tables, between every evaluator over the
// universe.
type Transitions struct {
	// parent[j] is the member index of j's one-event-shorter prefix, or
	// -1 when that prefix is not a member of the universe.
	parent []int32
	// label[j] is the index (into procs) of the process whose event
	// extends parent[j] to j; -1 when j has no parent edge.
	label []int32
	// succOff/succ are the CSR forward adjacency: the successors of i
	// are succ[succOff[i]:succOff[i+1]], ascending. succLab carries the
	// matching edge labels.
	succOff []int32
	succ    []int32
	succLab []int32
	// order lists member indexes in ascending event count: a topological
	// order of the graph (every edge adds one event), which lets the
	// temporal fixpoints run as single sweeps instead of iterating.
	order []int32
	// procs indexes the edge labels.
	procs []trace.ProcID
}

// Len reports the number of members (vertices).
func (t *Transitions) Len() int { return len(t.parent) }

// NumEdges reports the number of one-event-extension edges.
func (t *Transitions) NumEdges() int { return len(t.succ) }

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

// Succ returns the member indexes reached from i by one extension
// event, ascending. The slice aliases the arena and MUST be treated as
// read-only.
func (t *Transitions) Succ(i int) []int32 { return t.succ[t.succOff[i]:t.succOff[i+1]] }

// SuccOn returns the successors of i whose extending event is on
// process p. The slice is freshly allocated.
func (t *Transitions) SuccOn(i int, p trace.ProcID) []int32 {
	var out []int32
	for k := t.succOff[i]; k < t.succOff[i+1]; k++ {
		if t.procs[t.succLab[k]] == p {
			out = append(out, t.succ[k])
		}
	}
	return out
}

// HasSucc reports whether i has at least one extension in the universe
// (false exactly at the maximal computations of the event bound).
func (t *Transitions) HasSucc(i int) bool { return t.succOff[i] < t.succOff[i+1] }

// Order returns the member indexes in ascending event count — a
// topological order of the extension edges. The slice aliases the graph
// and MUST be treated as read-only.
func (t *Transitions) Order() []int32 { return t.order }

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
	// Topological order: ascending event count, which is the index's
	// parent-first order (nil, hence the identity, on sorted universes).
	t := &Transitions{
		parent: x.parent,
		label:  make([]int32, n),
		order:  x.order,
		procs:  procs,
	}
	for j, par := range x.parent {
		t.label[j] = -1
		if par >= 0 {
			t.label[j] = evLabel[x.event[j]]
		}
	}
	t.buildForward()
	return t
}

// buildForward derives the CSR forward adjacency from the parent/label
// arrays — a counting sort, shared by NewTransitions and the snapshot
// loader (which persists only the reverse relation) — and defaults the
// topological order to the identity, which is correct for canonically
// sorted universes.
func (t *Transitions) buildForward() {
	n := len(t.parent)
	// Member indexes ascend within each group because j ascends.
	counts := make([]int32, n+1)
	for _, p := range t.parent {
		if p >= 0 {
			counts[p]++
		}
	}
	t.succOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		t.succOff[i+1] = t.succOff[i] + counts[i]
	}
	edges := int(t.succOff[n])
	t.succ = make([]int32, edges)
	t.succLab = make([]int32, edges)
	next := make([]int32, n)
	copy(next, t.succOff[:n])
	for j := 0; j < n; j++ {
		p := t.parent[j]
		if p < 0 {
			continue
		}
		t.succ[next[p]] = int32(j)
		t.succLab[next[p]] = t.label[j]
		next[p]++
	}
	if t.order == nil {
		t.order = make([]int32, n)
		for i := range t.order {
			t.order[i] = int32(i)
		}
	}
}

// Transitions returns the universe's prefix-extension transition graph,
// building it on first use. Concurrent callers share one build.
func (u *Universe) Transitions() *Transitions {
	u.transOnce.Do(func() {
		u.prefixIndex() // a phase of its own, not part of this build's
		sp := u.tr.Start("transitions.build")
		u.trans.Store(NewTransitions(u))
		phaseTransitions.ObserveDuration(sp.End())
	})
	return u.trans.Load()
}

// transitionsIfBuilt returns the cached graph without building one:
// non-nil exactly when some caller has completed Transitions (or a
// snapshot load installed it). The snapshot writer peeks through this
// so it never races a build in progress.
func (u *Universe) transitionsIfBuilt() *Transitions { return u.trans.Load() }
