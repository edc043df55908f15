package universe

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hpl/internal/trace"
)

// The commutation quotient (WithCommutation) keeps one member per
// [D]-class. Two computations are [D]-equivalent exactly when they
// consist of the same events, in different interleavings of one partial
// order: each process's events in sequence, and each receive after its
// send. The paper requires every predicate to be constant on [D]-classes,
// so a well-formed formula cannot tell the interleavings apart, and
// checking it on one member per class loses nothing.
//
// The member kept is the greedy linearization: the one that always
// places the available event of the lowest-indexed process. A prefix of
// a greedy linearization is greedy, so the members form a prefix tree
// and the engine builds them level by level as it builds the full
// universe. It keeps a child x·e of a greedy x exactly when every event
// of x after e's last predecessor — e's process's previous event and,
// for a receive, its send — belongs to a lower-indexed process than e.
// Those events are all concurrent with e; had one of them belonged to a
// higher-indexed process, the greedy order would have placed e before
// it. Every class has a member: a Protocol's steps and deliveries read
// only process-local states and in-flight messages, so every
// linearization of a member's partial order is a member too.
//
// The children that fail the test are edges to classes that some other
// member represents: merge edges. Together with the tree edges they are
// the extension graph of the classes, a DAG whose edges all go one level
// down. Each child is resolved to its class through a class key, the
// sum of its events' keys, which every interleaving of the same events
// shares. A class's weight is its number of linearizations: the number
// of root paths to it in the DAG, one pass in level order.

// ErrCommutationQuotient reports an operation that a commutation
// quotient does not support: snapshots, Extend, and combining
// WithCommutation with WithSymmetry.
var ErrCommutationQuotient = errors.New("universe: not supported on a commutation quotient")

// mergeEdge is a child that failed the greedy test: its parent member
// and the class key of the class it belongs to.
type mergeEdge struct {
	par int32
	key trace.Hash128
}

// nullHash is the hash of the empty computation.
var nullHash = trace.Empty().Hash()

// eventKey is an event's contribution to a class key: the hash of the
// one-event sequence.
func eventKey(ev *trace.Event) trace.Hash128 { return nullHash.ExtendEvent(*ev) }

// classKey returns the class key of a computation whose class key is k
// extended by an event whose key is ek. Addition commutes, so every
// interleaving of the same events gets the same key.
func classKey(k, ek trace.Hash128) trace.Hash128 {
	return trace.Hash128{Hi: k.Hi + ek.Hi, Lo: k.Lo + ek.Lo}
}

// greedy reports whether member j, a greedy linearization, stays greedy
// when extended by an event of procs[pi]. send is the event identifier
// of the message a receive consumes, -1 for a step. It scans j's events
// backwards, down to the new event's last predecessor.
func (w *worker) greedy(j, pi, send int32) bool {
	e := w.e
	for ; e.ev[j] >= 0; j = e.par[j] {
		id := e.ev[j]
		f := &w.events[id]
		if f.proc == pi || id == send {
			return true
		}
		if f.proc > pi {
			return false
		}
	}
	return true
}

// merge records member j's child by ev, which failed the greedy test,
// as a merge edge.
func (w *worker) merge(j int32, ev *trace.Event) {
	w.merges = append(w.merges, mergeEdge{par: j, key: classKey(w.e.ckey[j], eventKey(ev))})
}

// resolve turns the merge edges of the level just expanded into member
// edges. The level appended from it, members [lo, len), holds the greedy
// representatives of every class those edges reach, so each edge's key
// names exactly one of them; two members with one key are a collision.
func (e *engine) resolve(lo int) {
	keys := e.ckey[lo:]
	tab := probeTable{slots: make([]int32, max(64, 2<<bits.Len(uint(len(keys)))))}
	find := func(k trace.Hash128) int32 {
		return tab.find(k.Lo, func(id int32) bool { return keys[id] == k })
	}
	for i, k := range keys {
		if find(k) >= 0 {
			e.fail(fmt.Errorf("%w: two classes of length %d share a class key", ErrHashCollision, e.length[lo]))
			return
		}
		tab.place(k.Lo, int32(i))
	}
	for _, ms := range e.merges {
		for _, m := range ms {
			id := find(m.key)
			if id < 0 {
				e.fail(fmt.Errorf("universe: protocol %T: an extension of member %d has no greedy representative", e.p, m.par))
				return
			}
			e.dagSrc = append(e.dagSrc, m.par)
			e.dagDst = append(e.dagDst, int32(lo)+id)
		}
	}
	e.merges = nil
}

// setCommutation makes u a commutation quotient whose merge edges are
// src[k] → dst[k], in source order: it lays the tree and merge edges out
// as successor lists and weighs each member by its class's number of
// linearizations, lin(Y) = Σ lin(X) over the edges X → Y.
func (u *Universe) setCommutation(src, dst []int32) error {
	n := u.Len()
	par := u.prefixIndex().parent
	off := make([]int32, n+1)
	for j := 1; j < n; j++ {
		off[par[j]+1]++
	}
	for _, s := range src {
		off[s+1]++
	}
	for i := range n {
		off[i+1] += off[i]
	}
	succ := make([]int32, off[n])
	next := slices.Clone(off[:n])
	for j := 1; j < n; j++ {
		succ[next[par[j]]] = int32(j)
		next[par[j]]++
	}
	for k, s := range src {
		succ[next[s]] = dst[k]
		next[s]++
	}
	lin := make([]int64, n)
	if n > 0 {
		lin[0] = 1
	}
	for i := range n {
		for _, s := range succ[off[i]:off[i+1]] {
			if lin[s] > math.MaxInt64-lin[i] {
				return fmt.Errorf("universe: member %d: linearization counts overflow an int64", s)
			}
			lin[s] += lin[i]
		}
	}
	u.succOff, u.succ = off, succ
	return u.setWeights(lin)
}

// Commuting reports whether the universe is a commutation quotient (see
// WithCommutation).
func (u *Universe) Commuting() bool { return u.succOff != nil }
