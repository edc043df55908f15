package universe

import (
	"cmp"
	"slices"

	"hpl/internal/trace"
)

// prefixIndex is a universe's prefix tree flattened to arrays: for each
// member, the member index of its one-event-shorter prefix and an
// interned identifier of its last event. Every member is its parent plus
// one event, so this is all the partition builder and the transition
// graph need — neither touches a member's event history again.
//
// Enumerated and snapshot-loaded universes are born with their index —
// the engine builds it as it emits (see engine.universe) and the loader
// from the file — and it is, with the hash and length columns, their
// storage. New universes build theirs once, on first use
// (Universe.prefixIndex). The index is immutable afterwards, so
// concurrent partition builds share it.
type prefixIndex struct {
	// parent[j] is the member index of j's prefix, or -1 when j is the
	// null computation or its prefix is not a member.
	parent []int32
	// event[j] is the interned last event of j; -1 for the null
	// computation.
	event []int32
	// chain holds, for each non-null member whose prefix is not a
	// member, its whole interned event sequence, first event first.
	// Enumerated and snapshot-loaded universes are prefix closed and
	// leave it empty.
	chain map[int32][]int32
	// order lists the members in the prefix tree's level order: by event
	// count, then the parent's member index (members whose prefix is
	// not a member first), then hash. So every member comes after its
	// parent and each member's children are contiguous. It is nil on
	// sorted universes, whose member order already is that order.
	order []int32
	// eventTable interns the events: events[id] is the event interned
	// as id.
	eventTable
}

// prefixIndex returns the universe's prefix index, building it on first
// use for New universes; sorted universes are born with theirs.
// Concurrent callers share one build, which a trace records as the
// prefix.index phase.
func (u *Universe) prefixIndex() *prefixIndex {
	u.prefixOnce.Do(func() {
		sp := u.tr.Start("prefix.index")
		u.prefix = newPrefixIndex(u)
		phasePrefixIndex.ObserveDuration(sp.End())
	})
	return u.prefix
}

// newPrefixIndex interns every member's last event, in member order,
// and resolves each member's parent through IndexOf. It builds the
// index of New universes, and is the reference the engine's and the
// snapshot loader's indexes are tested against.
func newPrefixIndex(u *Universe) *prefixIndex {
	n := u.Len()
	x := &prefixIndex{parent: make([]int32, n), event: make([]int32, n)}
	for j := range n {
		c := u.At(j)
		x.parent[j] = -1
		if p := c.Parent(); p != nil {
			x.parent[j] = int32(u.IndexOf(p))
		}
		last, ok := c.Last()
		if !ok {
			x.event[j] = -1
			continue
		}
		x.event[j] = x.intern(&last)
		if x.parent[j] >= 0 {
			continue
		}
		if x.chain == nil {
			x.chain = make(map[int32][]int32)
		}
		evs := c.Events()
		ch := make([]int32, len(evs))
		for k := range evs {
			ch[k] = x.intern(&evs[k])
		}
		x.chain[int32(j)] = ch
	}
	if !u.sorted {
		x.order = make([]int32, n)
		for i := range x.order {
			x.order[i] = int32(i)
		}
		slices.SortFunc(x.order, func(a, b int32) int {
			if c := cmp.Compare(u.length[a], u.length[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(x.parent[a], x.parent[b]); c != 0 {
				return c
			}
			if u.hash[a].Less(u.hash[b]) {
				return -1
			}
			return 1 // New members have distinct hashes
		})
	}
	return x
}

// nth returns the k-th member in parent-first order.
func (x *prefixIndex) nth(k int) int32 {
	if x.order != nil {
		return x.order[k]
	}
	return int32(k)
}

// HistorySums folds a per-event weight over every member's history:
// sums[j] is the total weight of the events of member j. weight is
// called once per interned event, not once per event occurrence; each
// member then costs one addition, sum[j] = sum[parent[j]] + w[event[j]],
// visited parent first. A member whose prefix is not a member sums its
// own event chain. This is how the knowledge package evaluates every
// atom that is a count over a computation's events.
func (u *Universe) HistorySums(weight func(trace.Event) int32) []int32 {
	x := u.prefixIndex()
	w := make([]int32, len(x.events))
	for id := range x.events {
		w[id] = weight(x.events[id])
	}
	sums := make([]int32, len(x.parent))
	for k := range sums {
		j := x.nth(k)
		switch par, e := x.parent[j], x.event[j]; {
		case par >= 0:
			sums[j] = sums[par] + w[e]
		case e >= 0:
			for _, ce := range x.chain[j] {
				sums[j] += w[ce]
			}
		}
	}
	return sums
}

// probeTable maps hashes to dense identifiers 0, 1, … by linear
// probing; the caller keeps the entries and decides equality. It backs
// the event tables and a partition build's tuple table, whose keys Go
// maps would hash slowly (structs of strings) or allocate for (tuples
// as strings).
type probeTable struct {
	slots []int32 // identifier + 1; 0 marks an empty slot
	n     int
}

// find returns the identifier of an entry with hash h that eq accepts,
// or -1. It only reads the table, so concurrent readers may call it.
func (t *probeTable) find(h uint64, eq func(id int32) bool) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for k := int(h) & mask; t.slots[k] != 0; k = (k + 1) & mask {
		if id := t.slots[k] - 1; eq(id) {
			return id
		}
	}
	return -1
}

// add assigns the next identifier to a new entry with hash h. It keeps
// the table at most half full, rehashing the existing entries through
// hashOf when it grows.
func (t *probeTable) add(h uint64, hashOf func(id int32) uint64) int32 {
	id := int32(t.n)
	t.n++
	if 2*t.n > len(t.slots) {
		t.slots = make([]int32, max(64, 2*len(t.slots)))
		for i := int32(0); i < id; i++ {
			t.place(hashOf(i), i)
		}
	}
	t.place(h, id)
	return id
}

func (t *probeTable) place(h uint64, id int32) {
	mask := len(t.slots) - 1
	k := int(h) & mask
	for t.slots[k] != 0 {
		k = (k + 1) & mask
	}
	t.slots[k] = id + 1
}

// eventTable interns events to dense identifiers, assigned in interning
// order.
type eventTable struct {
	events []trace.Event
	probe  probeTable
}

// lookup returns the identifier of ev; ok is false when ev was never
// interned. It only reads the table, so concurrent readers may call it.
func (t *eventTable) lookup(ev *trace.Event) (int32, bool) {
	id := t.probe.find(eventHash(ev), func(id int32) bool { return t.events[id] == *ev })
	return id, id >= 0
}

// clone returns an independent copy of the table, which interns on
// from where t left off.
func (t *eventTable) clone() eventTable {
	return eventTable{
		events: slices.Clone(t.events),
		probe:  probeTable{slots: slices.Clone(t.probe.slots), n: t.probe.n},
	}
}

// intern returns the identifier of ev, assigning the next one when ev
// is new.
func (t *eventTable) intern(ev *trace.Event) int32 {
	if id, ok := t.lookup(ev); ok {
		return id
	}
	t.events = append(t.events, *ev)
	return t.probe.add(eventHash(ev), func(id int32) uint64 { return eventHash(&t.events[id]) })
}

// eventHash is FNV-1a over an event's identifying fields, each field
// terminated so adjacent fields cannot alias. The process is implied by
// the event identifier.
func eventHash(ev *trace.Event) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range [...]string{string(ev.ID), string(ev.Msg), string(ev.Peer), ev.Tag} {
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * 1099511628211
		}
		h = (h ^ 0x100) * 1099511628211
	}
	return (h ^ uint64(ev.Kind)) * 1099511628211
}
