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

// canonicalize turns the drained pool's emission log into the
// universe. The engine's search tree is the universe's prefix tree, so
// the universe's columns are born here: one pass over the records in
// canonical order fills each member's hash, length, state vector and
// orbit size, and its parent and interned last event in the prefix
// index.
//
// Records are addressed by emission number, less the seed's size, so a
// record's par names its parent's record (or, below the seed's size, a
// base member). The index is identical to what newPrefixIndex would
// build over the finished universe: the same parents, and events
// numbered by first occurrence in member order, which is the order
// newPrefixIndex interns in.
func (e *engine) canonicalize(all trace.ProcSet, seed *seedState) (*Universe, error) {
	base := e.base
	var lens []int32
	for _, wl := range e.lens {
		for l, c := range wl {
			for len(lens) <= l {
				lens = append(lens, 0)
			}
			lens[l] += c
		}
	}
	nrec := int(e.emitted.Load()) - base
	recs := records(e.recs.chunks())
	masks := e.masks.chunks()
	// memberOf maps a record to its member index. canonicalOrder uses it
	// as scratch first; each entry is rewritten before it is read, since
	// a parent is shorter than its children and so precedes them.
	memberOf := make([]int32, nrec)
	order, err := canonicalOrder(recs, lens, memberOf, func(k int32) string { return e.computation(recs, int32(base)+k).Key() })
	if err != nil {
		return nil, err
	}

	n := base + nrec
	hash := make([]trace.Hash128, n)
	length := make([]int32, n)
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
		b := seed.base
		copy(hash, b.hash)
		copy(length, b.length)
		copy(svs, seed.svs)
		copy(x.parent, e.baseX.parent)
		copy(x.event, e.baseX.event)
		x.eventTable = e.baseX.eventTable.clone()
		copy(orbs, b.orbitSize)
	}
	events := e.events.table()
	eventID := make([]int32, len(events))
	for i := range eventID {
		eventID[i] = -1
	}
	for m, k := range order {
		j := base + m
		r := recs.at(k)
		hash[j], length[j], svs[j] = r.hash, r.n, r.sv
		if orbs != nil {
			orbs[j] = e.grp.orbitSize(masks[k>>logChunkBits][k&logChunkMask])
		}
		memberOf[k] = int32(j)
		par := r.par
		if int(par) >= base {
			par = memberOf[int(par)-base]
		}
		x.parent[j] = par
		ev := r.ev
		if ev >= 0 {
			if eventID[ev] < 0 {
				eventID[ev] = x.intern(&events[ev].Event)
			}
			ev = eventID[ev]
		}
		x.event[j] = ev
	}
	if e.cfg.progress != nil {
		e.cfg.progress(Progress{Explored: n})
	}

	u := newSorted(hash, length, x, all)
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

// computation builds the computation numbered num from the emission log
// and the base; only error messages need one.
func (e *engine) computation(recs records, num int32) *trace.Computation {
	evs := e.events.table()
	var chain []int32
	for ev, par := e.step(recs, num); ev >= 0; ev, par = e.step(recs, par) {
		chain = append(chain, ev)
	}
	c := trace.Empty()
	for k := len(chain) - 1; k >= 0; k-- {
		c = trace.Extend(c, evs[chain[k]].Event)
	}
	return c
}

// canonicalOrder returns the record indexes in canonical (length, hash)
// order; lens[l] counts the records with l events, and scratch (one
// entry per record) is overwritten. A counting pass distributes the
// records into buckets on (length, top hash bits) — 2^b buckets for a
// length holding c records, 2^(b-1) ≤ c < 2^b, so a bucket holds under
// one record on average — and an insertion sort finishes each bucket on
// the full hash. Both read the records' hash and length fields in
// place. The records are distinct computations (see the engine.go
// header), so a full 128-bit tie at one length is a hash collision, and
// checkHashTies fails the run on it, naming both members by key, rather
// than order the pair.
func canonicalOrder(recs records, lens []int32, scratch []int32, key func(k int32) string) ([]int32, error) {
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
	for k := range scratch {
		r := recs.at(int32(k))
		b := first[r.n] + int(r.hash.Hi>>shift[r.n])
		scratch[k] = int32(b)
		bound[b]++
	}
	next := int32(0)
	for b, c := range bound {
		bound[b] = next
		next += c
	}
	order := make([]int32, len(scratch))
	for k, b := range scratch {
		order[bound[b]] = int32(k)
		bound[b]++
	}
	less := func(i, j int32) bool { return recs.at(i).hash.Less(recs.at(j).hash) }
	lo := int32(0)
	for _, hi := range bound {
		for a := lo + 1; a < hi; a++ {
			for b := a; b > lo && less(order[b], order[b-1]); b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		lo = hi
	}
	return order, checkHashTies(recs, order, key)
}

// checkHashTies fails with ErrHashCollision when two records adjacent in
// order — canonical order under hash — have equal lengths and hashes,
// naming both by key. Equal hashes at different lengths pass.
func checkHashTies(recs records, order []int32, key func(k int32) string) error {
	for i := 1; i < len(order); i++ {
		a, b := recs.at(order[i-1]), recs.at(order[i])
		if a.n == b.n && a.hash == b.hash {
			return fmt.Errorf("%w: %q vs %q", ErrHashCollision, key(order[i-1]), key(order[i]))
		}
	}
	return nil
}
