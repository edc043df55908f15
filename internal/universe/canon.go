package universe

import (
	"errors"
	"fmt"

	"hpl/internal/trace"
)

// ErrHashCollision reports two distinct computations of one length with
// equal 128-bit canonical hashes. Distinct sequences collide with
// probability ~2^-128 per pair, and no collision has ever been
// observed; the universe checks for one all the same, because its
// sibling order and its hash index could not tell the two apart.
// Siblings are checked where they are sorted (sortSiblings, and the
// snapshot loader's sibling-order check), every other pair where the
// hash index is built (see Universe.IndexOf).
var ErrHashCollision = errors.New("universe: 128-bit canonical hash collision")

// sortSiblings puts one parent's children in hash order with an
// insertion sort — a parent has a handful of children. The children are
// distinct computations (see the engine.go header), so a full 128-bit
// tie between two of them is a hash collision, and sortSiblings fails
// with ErrHashCollision, naming both by key, rather than order the pair.
func sortSiblings(kids []record, key func(i int) string) error {
	for a := 1; a < len(kids); a++ {
		for b := a; b > 0; b-- {
			if kids[b].hash == kids[b-1].hash {
				return fmt.Errorf("%w: %q vs %q", ErrHashCollision, key(b-1), key(b))
			}
			if !kids[b].hash.Less(kids[b-1].hash) {
				break
			}
			kids[b], kids[b-1] = kids[b-1], kids[b]
		}
	}
	return nil
}

// key returns the canonical key of member par's computation extended by
// the engine event ev; only error messages need one.
func (e *engine) key(par, ev int32) string {
	evs := e.events.table()
	chain := []int32{ev}
	for j := par; e.ev[j] >= 0; j = e.par[j] {
		chain = append(chain, e.ev[j])
	}
	c := trace.Empty()
	for k := len(chain) - 1; k >= 0; k-- {
		c = trace.Extend(c, evs[chain[k]].Event)
	}
	return c.Key()
}

// universe wraps the engine's columns, which are already in member
// order, as the universe. Only the event column changes: the engine's
// event identifiers depend on which worker met an event first, so they
// are renumbered by first occurrence in member order — the order
// newPrefixIndex interns in, which makes the index identical to what it
// would build over the finished universe. An extension's members begin
// with the base's, whose events keep their identifiers (the engine
// interned them first), so only the fresh members are renumbered, into
// a clone of the base's event table.
func (e *engine) universe(all trace.ProcSet, seed *seedState) (*Universe, error) {
	x := &prefixIndex{parent: e.par, event: e.ev}
	from := 0
	var orbs []int64
	if e.grp != nil {
		orbs = make([]int64, len(e.hash))
	}
	if seed != nil {
		b := seed.base
		from = b.Len()
		x.eventTable = b.prefixIndex().eventTable.clone()
		copy(orbs, b.orbitSize)
	}
	events := e.events.table()
	eventID := make([]int32, len(events))
	for i := range eventID {
		eventID[i] = -1
	}
	for j := from; j < len(x.event); j++ {
		if ev := x.event[j]; ev >= 0 {
			if eventID[ev] < 0 {
				eventID[ev] = x.intern(&events[ev].Event)
			}
			x.event[j] = eventID[ev]
		}
		if orbs != nil {
			orbs[j] = e.grp.orbitSize(e.mask[j])
		}
	}
	if e.cfg.progress != nil {
		e.cfg.progress(Progress{Explored: len(e.hash)})
	}

	u := newSorted(e.hash, e.length, x, all)
	u.proto = e.p
	u.maxEvents = e.cfg.maxEvents
	u.states = e.states
	u.memberSV = e.sv
	if orbs != nil {
		// Quotient bookkeeping: each member's orbit size, its weight
		// class, and the full universe's cardinality as their sum — the
		// exact count a from-scratch run without the group would have
		// produced.
		if err := u.setOrbits(e.cfg.sym, orbs); err != nil {
			return nil, err
		}
	}
	if e.cfg.commute {
		if err := u.setCommutation(e.dagSrc, e.dagDst); err != nil {
			return nil, err
		}
	}
	return u, nil
}
