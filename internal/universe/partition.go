package universe

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"hpl/internal/trace"
)

// Partition is the dense decomposition of a universe into isomorphism
// classes with respect to one process set P: x and y share a class
// exactly when x [P] y. It is the set-at-a-time counterpart of Class —
// a precomputed table instead of a string-keyed map — and the substrate
// the vectorized knowledge engine reduces over: (P knows b) is one
// all-reduce per class.
//
// Tables are built from the universe's prefix index (see prefixIndex):
// a member's [P]-class differs from its parent's only when its last
// event is on P, and then only in that process's local history. A trie
// numbers the local histories, and a class is the interned tuple of the
// trie nodes of P's processes. Projection-key strings exist only behind
// ClassOfKey, filled in lazily from one member per class.
//
// Partitions are immutable once built and safe for concurrent readers.
// Class identifiers are dense, deterministic (assigned in order of
// first occurrence by member index), and independent of how many
// goroutines built the table.
type Partition struct {
	set trace.ProcSet
	// classID maps member index → class identifier.
	classID []int32
	// members maps class identifier → ascending member indexes. The
	// inner slices are views into one shared arena.
	members [][]int
	// twist records, for a symmetry quotient's table, the group element
	// (an index into Symmetry.elements, -1 for the identity) whose
	// renaming of the class's first member — the member whose listing
	// created the class — projects to the class's key. That member's own
	// projection may belong to another class. Nil for full universes,
	// where every member projects to its class's key.
	twist []int32

	// The projection-key index behind ClassOfKey is filled in lazily
	// from one member per class: keys are as long as event sequences,
	// and only lookups of computations outside the universe need them.
	u       *Universe
	keyOnce sync.Once
	byKey   map[string]int32
}

// Set returns P, the process set the partition refines by.
func (pt *Partition) Set() trace.ProcSet { return pt.set }

// Len reports the number of members partitioned.
func (pt *Partition) Len() int { return len(pt.classID) }

// NumClasses reports the number of isomorphism classes.
func (pt *Partition) NumClasses() int { return len(pt.members) }

// ClassOf returns the class identifier of member i.
func (pt *Partition) ClassOf(i int) int32 { return pt.classID[i] }

// MembersOf returns the ascending member indexes of the class. The
// slice aliases the table and MUST be treated as read-only.
func (pt *Partition) MembersOf(class int32) []int { return pt.members[class] }

// ClassOfKey returns the class whose members have the given projection
// key; ok is false when no member projects to it.
func (pt *Partition) ClassOfKey(projKey string) (int32, bool) {
	pt.keyOnce.Do(pt.buildKeys)
	c, ok := pt.byKey[projKey]
	return c, ok
}

// buildKeys fills in the projection-key index. Every member of a class
// shares one projection key by construction, so one key per class —
// projected from the class's first member, renamed by the class's twist
// on quotients — reconstructs the full index.
func (pt *Partition) buildKeys() {
	if pt.u == nil {
		return // a PartitionByLabel table: no projection key names a class
	}
	var elems []map[trace.ProcID]trace.ProcID
	if pt.twist != nil {
		elems = pt.u.sym.elements()
	}
	byKey := make(map[string]int32, len(pt.members))
	for c, ms := range pt.members {
		x := pt.u.At(ms[0])
		if pt.twist != nil && pt.twist[c] >= 0 {
			x = renameComputation(x, elems[pt.twist[c]])
		}
		byKey[x.ProjectionKey(pt.set)] = int32(c)
	}
	pt.byKey = byKey
}

// NewPartition builds the [P]-partition of the universe without
// consulting or populating the universe's partition cache. Prefer
// Universe.Partition, which builds each table once and shares it;
// NewPartition exists for the partition-table ablation benchmark and
// for tests that need a fresh table.
//
// On a symmetry quotient, members stand for whole renaming orbits, so
// the relation has to be read through the orbits: member j is related
// to projection key k exactly when SOME renaming σ·y_j projects to k.
// Each member is therefore listed under the class of σ·y_j for every
// group element σ — "twisted" listings — so classes may overlap; a
// member's own class (ClassOf) is the one keyed by its identity
// projection.
//
// For an invariant P (the only kind knowledge.Evaluator admits for K_P;
// see Symmetry.Invariant) any two classes sharing a member coincide as
// sets — renaming permutes the full [P]-classes and preserves orbits —
// which is what keeps the per-class all-reduce in the knowledge engine
// sound without modification. For non-invariant P (the per-process
// singletons common knowledge is taken over; see Components)
// overlapping classes encode exactly the relation-through-renaming the
// quotient needs: a twisted class links its members through some
// renamed process's relation, all of which D contains.
func NewPartition(u *Universe, p trace.ProcSet) *Partition {
	n := u.Len()
	pt := &Partition{set: p, u: u}
	b := newHistoryTrie(u.prefixIndex())
	if u.sym == nil {
		// Tuple identifiers are new exactly at their first occurrence in
		// processing order; renumber by first occurrence in member order.
		tuple, tuples := b.memberTuples(p.IDs())
		pt.label(tuple, tuples.len())
		return pt
	}

	// Quotient: track every process some renaming carries onto P, so
	// each σ·y's histories on P are renamings of y's tracked histories.
	elems := u.sym.elements()
	b.elems = elems
	b.renNode = make([][]int32, len(elems))
	b.renEv = make([]map[int32]int32, len(elems))
	tracked := p
	for _, sigma := range elems {
		for q, img := range sigma {
			if p.Contains(img) {
				tracked = tracked.Union(trace.Singleton(q))
			}
		}
	}
	ids, pids := tracked.IDs(), p.IDs()
	tuple, tuples := b.memberTuples(ids)
	// src[s][m] is the tracked position of σ_s⁻¹(P[m]) (s = 0 is the
	// identity): σ·y's history on P[m] is σ renaming y's history there.
	pos := make(map[trace.ProcID]int, len(ids))
	for k, id := range ids {
		pos[id] = k
	}
	src := make([][]int, len(elems)+1)
	for s := range src {
		src[s] = make([]int, len(pids))
		for m, id := range pids {
			src[s][m] = pos[id]
			if s > 0 {
				for q, img := range elems[s-1] {
					if img == id {
						src[s][m] = pos[q]
					}
				}
			}
		}
	}
	// Each distinct tracked tuple lists its deduplicated P-tuples, the
	// identity's first, memoized: members sharing all tracked histories
	// share their listings.
	ptuples := newTupleTable(len(pids))
	listings := make([][]listing, tuples.len())
	scratch := make([]int32, len(pids))
	listOf := func(t int32) []listing {
		if l := listings[t]; l != nil {
			return l
		}
		nodes := tuples.at(t)
		var l []listing
		for s := range src {
			for m, k := range src[s] {
				scratch[m] = b.rename(s-1, nodes[k])
			}
			id := ptuples.intern(scratch)
			dup := false
			for _, e := range l {
				dup = dup || e.tuple == id
			}
			if !dup {
				l = append(l, listing{tuple: id, twist: int32(s - 1)})
			}
		}
		listings[t] = l
		return l
	}
	var class []int32 // P-tuple → class
	pt.classID = make([]int32, n)
	for j, t := range tuple {
		for k, e := range listOf(t) {
			for int(e.tuple) >= len(class) {
				class = append(class, -1)
			}
			if class[e.tuple] < 0 {
				class[e.tuple] = int32(len(pt.twist))
				pt.twist = append(pt.twist, e.twist)
			}
			if k == 0 {
				pt.classID[j] = class[e.tuple]
			}
		}
	}
	pt.members = classMembers(len(pt.twist), func(yield func(int, int32) bool) {
		for j, t := range tuple {
			for _, e := range listings[t] {
				if !yield(j, class[e.tuple]) {
					return
				}
			}
		}
	})
	return pt
}

// PartitionByLabel builds the partition of members 0 … len(label)-1
// that groups members with equal labels: label[i] ≥ 0 is member i's
// class under some equivalence other than [P]-isomorphism (state-based
// isomorphism, for one), and p is the process set it is taken for.
// Classes are numbered by first occurrence in member order, as
// NewPartition numbers them, and label is not retained. The table
// answers no ClassOfKey lookups: projection keys do not name its
// classes.
func PartitionByLabel(p trace.ProcSet, label []int32) *Partition {
	nlabel := 0
	for _, l := range label {
		nlabel = max(nlabel, int(l)+1)
	}
	pt := &Partition{set: p}
	pt.label(slices.Clone(label), nlabel)
	return pt
}

// label makes the table of an untwisted partition from per-member
// labels in [0, nlabel), renumbering them in place by first occurrence.
func (pt *Partition) label(classID []int32, nlabel int) {
	remap := make([]int32, nlabel)
	for i := range remap {
		remap[i] = -1
	}
	nclass := int32(0)
	for j, t := range classID {
		if remap[t] < 0 {
			remap[t] = nclass
			nclass++
		}
		classID[j] = remap[t]
	}
	pt.classID = classID
	pt.members = classMembers(int(nclass), ownClasses(classID))
}

// listing is one class a quotient member is listed under: the interned
// P-tuple of a renaming of the member, and that renaming's index into
// Symmetry.elements (-1 for the identity).
type listing struct {
	tuple, twist int32
}

// ownClasses lists every member under its own class only.
func ownClasses(classID []int32) iter.Seq2[int, int32] {
	return func(yield func(int, int32) bool) {
		for i, c := range classID {
			if !yield(i, c) {
				return
			}
		}
	}
}

// classMembers lays out the member lists of nclass classes from a
// (member, class) listing in ascending member order — classes back to
// back in one arena. It ranges over the listing twice: once to size the
// classes, once to fill them.
func classMembers(nclass int, listed iter.Seq2[int, int32]) [][]int {
	counts := make([]int, nclass)
	total := 0
	for _, c := range listed {
		counts[c]++
		total++
	}
	arena := make([]int, total)
	members := make([][]int, nclass)
	off := 0
	for c, cnt := range counts {
		members[c] = arena[off : off : off+cnt]
		off += cnt
	}
	for i, c := range listed {
		members[c] = append(members[c], i)
	}
	return members
}

// historyTrie is one partition build's numbering of local histories
// over the shared prefix index. Node 0 is the empty history; the child
// of node a by event e is the history a followed by e. Events carry
// their process, so the tries of all processes share this one table
// and their common root. Nothing here is shared between builds, which
// keeps concurrent builds for different process sets race-free.
type historyTrie struct {
	x *prefixIndex
	// child maps (node, event) to the extended history's node; the
	// parent and last event of each non-root node invert it.
	child      map[uint64]int32
	nodeParent []int32
	nodeEvent  []int32
	// Quotient builds only: the group elements, events renamed into
	// existence beyond the index's table (their identifiers continue
	// after it), and the memoized renamings of events and nodes, per
	// group element.
	elems   []map[trace.ProcID]trace.ProcID
	extra   eventTable
	renEv   []map[int32]int32
	renNode [][]int32
}

func newHistoryTrie(x *prefixIndex) *historyTrie {
	return &historyTrie{
		x:          x,
		child:      make(map[uint64]int32),
		nodeParent: []int32{-1},
		nodeEvent:  []int32{-1},
	}
}

// extend returns the node of history a followed by event e.
func (b *historyTrie) extend(a, e int32) int32 {
	k := uint64(uint32(a))<<32 | uint64(uint32(e))
	if c, ok := b.child[k]; ok {
		return c
	}
	c := int32(len(b.nodeParent))
	b.child[k] = c
	b.nodeParent = append(b.nodeParent, a)
	b.nodeEvent = append(b.nodeEvent, e)
	return c
}

// memberTuples interns every member's tuple of local-history nodes for
// the given processes (ascending) and returns each member's tuple
// identifier. Members are visited parent first: a member inherits its
// parent's tuple and, when its last event is on a tracked process,
// extends that one process's history. Members whose prefix is not a
// member fold their own event chain from the root.
func (b *historyTrie) memberTuples(procs []trace.ProcID) ([]int32, *tupleTable) {
	x := b.x
	// on[e] is the tracked position of event e's process, -1 if none.
	on := make([]int32, len(x.events))
	for e, ev := range x.events {
		on[e] = -1
		for k, id := range procs {
			if ev.Proc == id {
				on[e] = int32(k)
			}
		}
	}
	tuples := newTupleTable(len(procs))
	scratch := make([]int32, len(procs))
	root := tuples.intern(scratch)
	tuple := make([]int32, len(x.parent))
	for k := range x.parent {
		j := x.nth(k)
		par, e := x.parent[j], x.event[j]
		switch {
		case e < 0:
			tuple[j] = root
		case par < 0:
			clear(scratch)
			for _, ce := range x.chain[j] {
				if k := on[ce]; k >= 0 {
					scratch[k] = b.extend(scratch[k], ce)
				}
			}
			tuple[j] = tuples.intern(scratch)
		case on[e] < 0:
			tuple[j] = tuple[par]
		default:
			copy(scratch, tuples.at(tuple[par]))
			scratch[on[e]] = b.extend(scratch[on[e]], e)
			tuple[j] = tuples.intern(scratch)
		}
	}
	return tuple, tuples
}

// rename returns the node of the history σ_s renames node a into (s < 0
// is the identity), memoized per group element: σ renames a history
// event by event, so the renamed node is the renamed parent extended by
// the renamed last event.
func (b *historyTrie) rename(s int, a int32) int32 {
	if s < 0 || a == 0 {
		return a
	}
	for int(a) >= len(b.renNode[s]) {
		b.renNode[s] = append(b.renNode[s], -1)
	}
	if r := b.renNode[s][a]; r >= 0 {
		return r
	}
	r := b.extend(b.rename(s, b.nodeParent[a]), b.renameEvent(s, b.nodeEvent[a]))
	b.renNode[s][a] = r
	return r
}

// renameEvent returns the identifier of σ_s applied to event e,
// interning renamed events the index does not hold past its table.
func (b *historyTrie) renameEvent(s int, e int32) int32 {
	if b.renEv[s] == nil {
		b.renEv[s] = make(map[int32]int32)
	}
	if r, ok := b.renEv[s][e]; ok {
		return r
	}
	shared := int32(len(b.x.events))
	var ev trace.Event
	if e < shared {
		ev = b.x.events[e]
	} else {
		ev = b.extra.events[e-shared]
	}
	rev := renameEvent(ev, b.elems[s])
	r, ok := b.x.lookup(&rev)
	if !ok {
		r = shared + b.extra.intern(&rev)
	}
	b.renEv[s][e] = r
	return r
}

// tupleTable interns fixed-width tuples of int32 to dense identifiers,
// assigned in interning order. Tuples live back to back in one flat
// slice.
type tupleTable struct {
	width int
	flat  []int32
	probe probeTable
}

func newTupleTable(width int) *tupleTable { return &tupleTable{width: width} }

func (t *tupleTable) len() int { return t.probe.n }

// at returns tuple id's elements; the slice aliases the table.
func (t *tupleTable) at(id int32) []int32 {
	return t.flat[int(id)*t.width : (int(id)+1)*t.width]
}

func (t *tupleTable) intern(tup []int32) int32 {
	h := hashTuple(tup)
	if id := t.probe.find(h, func(id int32) bool { return slices.Equal(t.at(id), tup) }); id >= 0 {
		return id
	}
	t.flat = append(t.flat, tup...)
	return t.probe.add(h, func(id int32) uint64 { return hashTuple(t.at(id)) })
}

// hashTuple mixes a tuple's elements into 64 bits.
func hashTuple(tup []int32) uint64 {
	h := uint64(len(tup))
	for _, v := range tup {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// Partition returns the [P]-partition of the universe, building it on
// first use. Tables are cached per process set; concurrent callers
// share one build. This is the set-at-a-time view of Class: for a
// member i, MembersOf(ClassOf(i)) is exactly Class(At(i), P).
func (u *Universe) Partition(p trace.ProcSet) *Partition {
	k := p.Key()
	v, ok := u.parts.Load(k)
	if !ok {
		v, _ = u.parts.LoadOrStore(k, &partitionCell{})
	}
	cell := v.(*partitionCell)
	cell.once.Do(func() {
		u.prefixIndex() // a phase of its own, not part of this build's
		sp := u.tr.Start("partition.build")
		cell.pt.Store(NewPartition(u, p))
		phasePartition.ObserveDuration(sp.End())
	})
	return cell.pt.Load()
}

// partitionCell delays a cached partition's construction until exactly
// one caller runs it; LoadOrStore may race cells, but every loser
// discards its empty cell before any build starts. The table is
// published through an atomic pointer (inside the once) so concurrent
// peekers (the snapshot writer) observe completed builds only.
type partitionCell struct {
	once sync.Once
	pt   atomic.Pointer[Partition]
}

// partitionsIfBuilt returns the partition tables whose builds have
// completed, without triggering any. The snapshot writer enumerates
// built tables through this so it never races a build in progress.
func (u *Universe) partitionsIfBuilt() []*Partition {
	var out []*Partition
	u.parts.Range(func(_, v any) bool {
		if pt := v.(*partitionCell).pt.Load(); pt != nil {
			out = append(out, pt)
		}
		return true
	})
	return out
}

// installPartition places a snapshot-loaded table into the universe's
// partition cache; a table already built (or being built) for the same
// process set wins instead.
func (u *Universe) installPartition(pt *Partition) {
	v, _ := u.parts.LoadOrStore(pt.set.Key(), &partitionCell{})
	cell := v.(*partitionCell)
	cell.once.Do(func() { cell.pt.Store(pt) })
}
