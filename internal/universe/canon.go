package universe

import (
	"errors"
	"fmt"
	"math/bits"

	"hpl/internal/trace"
)

// ErrHashCollision reports two distinct computations of one length with
// equal 128-bit canonical hashes. Distinct sequences collide with
// probability ~2^-128 per pair, and no collision has ever been
// observed; canonicalOrder checks every enumeration for one all the
// same, because the universe's hash index could not tell the two apart.
var ErrHashCollision = errors.New("universe: 128-bit canonical hash collision")

// canonicalize turns the drained pool's emission records into the
// universe. The engine's search tree is the universe's prefix tree, so
// the prefix index is born here rather than rebuilt later: one pass over
// the records in canonical order fills the members, their state vectors
// and orbit sizes, and each member's parent and interned last event.
//
// Records are addressed by emission number, less the seed's size, so a
// record's par names its parent's record (or, below the seed's size, a
// base member). The index is identical to what newPrefixIndex would
// build over the finished universe: the same parents, and events
// numbered by first occurrence in member order, which is the order
// newPrefixIndex interns in.
func (e *engine) canonicalize(all trace.ProcSet, seed *seedState) (*Universe, error) {
	base := 0
	if seed != nil {
		base = seed.base.Len()
	}
	// The pool has drained: release each record array once it is
	// consumed.
	recs, recEvent, recEvents, lens := e.mergeEmissions(base)
	e.outs = nil
	// memberOf maps a record to its member index. canonicalOrder uses it
	// as scratch first; each entry is rewritten before it is read, since
	// a parent is shorter than its children and so precedes them.
	memberOf := make([]int32, len(recs))
	order, err := canonicalOrder(recs, lens, memberOf)
	if err != nil {
		return nil, err
	}

	n := base + len(recs)
	comps := make([]*trace.Computation, n)
	svs := make([]int32, n)
	x := &prefixIndex{parent: make([]int32, n), event: make([]int32, n)}
	var orbs []int64
	if e.grp != nil {
		orbs = make([]int64, n)
	}
	if seed != nil {
		// An extension's members are the base's (all shorter, already in
		// canonical order) followed by the fresh ones: because length is
		// the primary sort key and every fresh member is strictly longer
		// than every old one, the concatenation is the global canonical
		// order — a from-scratch build of the larger bound sorts to
		// exactly this. The base's index, events included, is likewise
		// the prefix of the extension's.
		bx := seed.base.prefixIndex()
		copy(comps, seed.base.comps)
		copy(svs, seed.svs)
		copy(x.parent, bx.parent)
		copy(x.event, bx.event)
		x.eventTable = bx.eventTable.clone()
		copy(orbs, seed.base.orbitSize)
	}
	eventID := make([]int32, len(recEvents.events))
	for i := range eventID {
		eventID[i] = -1
	}
	for m, k := range order {
		j := base + m
		nd := &recs[k]
		comps[j], svs[j] = nd.comp, nd.sv
		if orbs != nil {
			orbs[j] = e.grp.orbitSize(nd.mask)
		}
		memberOf[k] = int32(j)
		par := nd.par
		if int(par) >= base {
			par = memberOf[int(par)-base]
		}
		x.parent[j] = par
		ev := recEvent[k]
		if ev >= 0 {
			if eventID[ev] < 0 {
				eventID[ev] = x.intern(&recEvents.events[ev])
			}
			ev = eventID[ev]
		}
		x.event[j] = ev
	}
	if e.cfg.progress != nil {
		e.cfg.progress(Progress{Explored: n})
	}

	u := newSorted(comps, all, x.parent)
	u.prefixOnce.Do(func() { u.prefix = x })
	u.proto = e.p
	u.maxEvents = e.cfg.maxEvents
	u.states = e.states
	u.memberSV = svs
	if orbs != nil {
		// Quotient bookkeeping: each member's orbit size, its weight
		// class, and the full universe's cardinality as their sum — the
		// exact count a from-scratch run without the group would have
		// produced.
		if err := u.setOrbits(e.cfg.sym, orbs); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// mergeEmissions lays the workers' records out by emission number, less
// base, and returns them with each record's last event as an identifier
// into one shared event table, and the number of records of each
// length. A single worker's records are already in emission order and
// are returned as they are; several workers' are scattered into fresh
// arrays, their local event identifiers translated on the way, and each
// worker's share is dropped once copied.
func (e *engine) mergeEmissions(base int) (recs []enode, event []int32, events *eventTable, lens []int32) {
	if len(e.outs) == 1 {
		o := &e.outs[0]
		return o.nodes, o.event, &o.events, o.lens
	}
	total := 0
	for i := range e.outs {
		total += len(e.outs[i].nodes)
	}
	recs = make([]enode, total)
	event = make([]int32, total)
	events = &eventTable{}
	for i := range e.outs {
		o := &e.outs[i]
		shared := make([]int32, len(o.events.events))
		for id := range o.events.events {
			shared[id] = events.intern(&o.events.events[id])
		}
		for k, nd := range o.nodes {
			r := int(o.num[k]) - base
			recs[r] = nd
			event[r] = -1
			if ev := o.event[k]; ev >= 0 {
				event[r] = shared[ev]
			}
		}
		for l, c := range o.lens {
			for len(lens) <= l {
				lens = append(lens, 0)
			}
			lens[l] += c
		}
		*o = emission{}
	}
	return recs, event, events, lens
}

// canonicalOrder returns the record indexes in canonical (length, hash)
// order; lens[l] counts the records with l events, and keys (one entry
// per record) is scratch it overwrites. A counting pass distributes the
// records into buckets on (length, top hash bits) — 2^b buckets for a
// length holding c records, 2^(b-1) ≤ c < 2^b, so a bucket holds under
// one record on average — and an insertion sort finishes each bucket on
// the full hash. Only the latter touches a computation more than once.
// The records are distinct computations (see the engine.go header), so
// a full 128-bit tie at one length is a hash collision, and
// checkHashTies fails the run on it rather than order the pair.
func canonicalOrder(recs []enode, lens []int32, keys []int32) ([]int32, error) {
	first := make([]int, len(lens)+1)
	shift := make([]uint8, len(lens))
	for l, c := range lens {
		b := bits.Len32(uint32(c))
		shift[l] = uint8(64 - b)
		first[l+1] = first[l] + 1<<b
	}
	// bound[b] counts bucket b's records, then becomes the position
	// after its last one.
	bound := make([]int32, first[len(lens)])
	for k := range recs {
		c := recs[k].comp
		l := c.Len()
		b := first[l] + int(c.Hash().Hi>>shift[l])
		keys[k] = int32(b)
		bound[b]++
	}
	next := int32(0)
	for b, c := range bound {
		bound[b] = next
		next += c
	}
	order := make([]int32, len(recs))
	for k, b := range keys {
		order[bound[b]] = int32(k)
		bound[b]++
	}
	less := func(i, j int32) bool { return recs[i].comp.Hash().Less(recs[j].comp.Hash()) }
	lo := int32(0)
	for _, hi := range bound {
		for a := lo + 1; a < hi; a++ {
			for b := a; b > lo && less(order[b], order[b-1]); b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		lo = hi
	}
	return order, checkHashTies(recs, order, (*trace.Computation).Hash)
}

// checkHashTies fails with ErrHashCollision when two records adjacent in
// order — canonical order under hash — have equal lengths and hashes.
// Equal hashes at different lengths pass. hash is a parameter so tests
// can forge collisions.
func checkHashTies(recs []enode, order []int32, hash func(*trace.Computation) trace.Hash128) error {
	for i := 1; i < len(order); i++ {
		a, b := recs[order[i-1]].comp, recs[order[i]].comp
		if a.Len() == b.Len() && hash(a) == hash(b) {
			return fmt.Errorf("%w: %q vs %q", ErrHashCollision, a.Key(), b.Key())
		}
	}
	return nil
}
