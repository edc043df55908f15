// Package temporal computes CTL operators over the prefix-extension
// transition graph of a universe (universe.Transitions), set-at-a-time
// on packed truth vectors. It is the temporal half of the model checker:
// package knowledge contributes the epistemic operators (K, E, Sure,
// Common) as truth vectors over the universe, and this package closes
// them under branching time — "does q eventually learn b", "once
// learned, is b stable", the paper's knowledge gain and loss theorems
// phrased as temporal validities.
//
// Truth vectors are []uint64 bitsets, one bit per member in member
// order, exactly the representation the vectorized knowledge engine
// uses, so the two compose with no conversion. Because every transition
// appends one event, the graph is a forest ordered by event count, and
// each member's children sit in one contiguous range of that order
// (universe.Transitions.ChildRanges). Each kernel therefore starts with
// whole-word operations over the vector (EU and AU copy g, Once copies
// f, EX and EY start all-false) and then visits only the positions
// below the inner bound, the members that have children, once each:
// descending for the future operators, which test a child range with a
// masked word read, and ascending for the past ones, which OR a
// parent's bit into its child range with a masked fill. The leaves
// past the inner bound need no visit at all. On a universe whose member
// order is not its level order (a hand-built one), the vectors are
// permuted into order positions on the way in and back on the way out.
//
// On a commutation quotient (universe.WithCommutation) a member stands
// for a [D]-class, and the future operators read its successor lists
// (universe.Transitions.Successors) instead of child ranges: each of EX,
// EU and AU branches once, on entry. Successors sit one level further
// down, so the member order is still a topological order and EU and AU
// remain single descending sweeps. The past operators are not answered
// there: they follow one linearization's prefixes.
//
// Path semantics are finite: a path is a maximal chain of one-event
// extensions inside the enumerated universe, so a member with no
// successor (a computation at the event bound) ends its paths. At such
// a leaf EX fails and AX holds vacuously, and the until/eventually
// operators require their target to actually occur (AF f at a leaf
// reduces to f at the leaf). Dually, the past operators treat the null
// computation as the start of history: EY fails and AY holds there.
package temporal

import (
	"math/bits"
	"slices"

	"hpl/internal/universe"
)

// words returns an all-false vector with one bit per member of t.
func words(t *universe.Transitions) []uint64 {
	return make([]uint64, (t.Len()+63)/64)
}

func get(v []uint64, i int32) bool { return v[i>>6]&(1<<(uint32(i)&63)) != 0 }
func set(v []uint64, i int32)      { v[i>>6] |= 1 << (uint32(i) & 63) }

// maskTail zeroes the bits past n so derived operators built from
// complements keep clean tails (the knowledge engine's popcount and
// all-true reductions assume them).
func maskTail(v []uint64, n int) {
	if r := uint(n) & 63; r != 0 && len(v) > 0 {
		v[len(v)-1] &= (1 << r) - 1
	}
}

func not(t *universe.Transitions, f []uint64) []uint64 {
	out := make([]uint64, len(f))
	for w := range f {
		out[w] = ^f[w]
	}
	maskTail(out, t.Len())
	return out
}

func trueVec(t *universe.Transitions) []uint64 {
	out := words(t)
	for w := range out {
		out[w] = ^uint64(0)
	}
	maskTail(out, t.Len())
	return out
}

// toPositions returns v indexed by position in t.Order(): v itself when
// member i sits at position i, else a permuted copy.
func toPositions(t *universe.Transitions, v []uint64) []uint64 {
	if !t.Permuted() {
		return v
	}
	out := words(t)
	for k, i := range t.Order() {
		if get(v, i) {
			set(out, int32(k))
		}
	}
	return out
}

// toMembers is the inverse of toPositions.
func toMembers(t *universe.Transitions, v []uint64) []uint64 {
	if !t.Permuted() {
		return v
	}
	out := words(t)
	for k, i := range t.Order() {
		if get(v, int32(k)) {
			set(out, i)
		}
	}
	return out
}

// window returns the word holding bit lo and the mask of the bits of
// [lo,hi) in that word; hi > lo.
func window(lo, hi int32) (int32, uint64) {
	w := lo >> 6
	m := ^uint64(0) << (uint32(lo) & 63)
	if hi < (w+1)<<6 {
		m &= ^uint64(0) >> (64 - uint32(hi)&63)
	}
	return w, m
}

// anyIn reports whether v has a bit set in [lo,hi).
func anyIn(v []uint64, lo, hi int32) bool {
	for ; lo < hi; lo = (lo | 63) + 1 {
		if w, m := window(lo, hi); v[w]&m != 0 {
			return true
		}
	}
	return false
}

// allIn reports whether v has every bit of [lo,hi) set.
func allIn(v []uint64, lo, hi int32) bool {
	for ; lo < hi; lo = (lo | 63) + 1 {
		if w, m := window(lo, hi); v[w]&m != m {
			return false
		}
	}
	return true
}

// fill sets the bits [lo,hi) of v.
func fill(v []uint64, lo, hi int32) {
	for ; lo < hi; lo = (lo | 63) + 1 {
		w, m := window(lo, hi)
		v[w] |= m
	}
}

// EX returns ∃◯f: some one-event extension satisfies f. False at
// members with no extension.
func EX(t *universe.Transitions, f []uint64) []uint64 {
	kernEX.Inc()
	if off, succ := t.Successors(); off != nil {
		out := words(t)
		for k := range int32(len(off) - 1) {
			if anyOf(f, succ[off[k]:off[k+1]]) {
				set(out, k)
			}
		}
		return out
	}
	f = toPositions(t, f)
	out := words(t)
	for k, r := range t.ChildRanges() {
		if anyIn(f, r[0], r[1]) {
			set(out, int32(k))
		}
	}
	return toMembers(t, out)
}

// AX returns ∀◯f: every one-event extension satisfies f, vacuously true
// at members with no extension. AX f = ¬EX ¬f.
func AX(t *universe.Transitions, f []uint64) []uint64 {
	kernAX.Inc()
	return not(t, EX(t, not(t, f)))
}

// EY returns ∃●f (exists-yesterday): the one-event-shorter prefix
// satisfies f. False at members without a predecessor (null).
func EY(t *universe.Transitions, f []uint64) []uint64 {
	kernEY.Inc()
	f = toPositions(t, f)
	out := words(t)
	kids := t.ChildRanges()
	forEachUp(f, int32(len(kids)), func(k int32) { fill(out, kids[k][0], kids[k][1]) })
	return toMembers(t, out)
}

// AY returns ∀●f: vacuously true where there is no predecessor,
// otherwise equal to EY f (predecessors are unique). AY f = ¬EY ¬f.
func AY(t *universe.Transitions, f []uint64) []uint64 {
	kernAY.Inc()
	return not(t, EY(t, not(t, f)))
}

// anyOf reports whether v has some bit of ks set.
func anyOf(v []uint64, ks []int32) bool {
	for _, k := range ks {
		if get(v, k) {
			return true
		}
	}
	return false
}

// allOf reports whether v has every bit of ks set.
func allOf(v []uint64, ks []int32) bool {
	for _, k := range ks {
		if !get(v, k) {
			return false
		}
	}
	return true
}

// forEachUp calls visit at every position below inner whose bit is set
// in v, in ascending order. It rereads v's word after each visit, so a
// bit that visit sets above the current position is visited too.
func forEachUp(v []uint64, inner int32, visit func(k int32)) {
	for k := int32(0); k < inner; k++ {
		w := k >> 6
		rest := v[w] >> (uint32(k) & 63)
		if rest == 0 {
			k = (w+1)<<6 - 1
			continue
		}
		if k += int32(bits.TrailingZeros64(rest)); k < inner {
			visit(k)
		}
	}
}

// forEachDown calls visit at every position below inner where f is
// set and out is not, in descending order; visit may set out's bit at
// the position it is given.
func forEachDown(f, out []uint64, inner int32, visit func(k int32)) {
	for k := inner - 1; k >= 0; k-- {
		w := k >> 6
		c := (f[w] &^ out[w]) << (63 - uint32(k)&63)
		if c == 0 {
			k = w << 6
			continue
		}
		k -= int32(bits.LeadingZeros64(c))
		visit(k)
	}
}

// EU returns E[f U g]: some extension path reaches g with f holding at
// every member strictly before it — the least fixpoint of
// Z = g ∨ (f ∧ EX Z), computed in one sweep from the longest members
// down (every edge lengthens the computation, so successors are always
// visited first). A leaf's value is g's.
func EU(t *universe.Transitions, f, g []uint64) []uint64 {
	kernEU.Inc()
	if off, succ := t.Successors(); off != nil {
		out := slices.Clone(g)
		forEachDown(f, out, int32(len(off)-1), func(k int32) {
			if anyOf(out, succ[off[k]:off[k+1]]) {
				set(out, k)
			}
		})
		return out
	}
	f = toPositions(t, f)
	out := slices.Clone(toPositions(t, g))
	kids := t.ChildRanges()
	forEachDown(f, out, int32(len(kids)), func(k int32) {
		if anyIn(out, kids[k][0], kids[k][1]) {
			set(out, k)
		}
	})
	return toMembers(t, out)
}

// AU returns A[f U g]: every maximal extension path reaches g, with f
// holding until then — the least fixpoint of
// Z = g ∨ (f ∧ EX true ∧ AX Z). At a leaf A[f U g] reduces to g.
func AU(t *universe.Transitions, f, g []uint64) []uint64 {
	kernAU.Inc()
	if off, succ := t.Successors(); off != nil {
		out := slices.Clone(g)
		forEachDown(f, out, int32(len(off)-1), func(k int32) {
			if s := succ[off[k]:off[k+1]]; len(s) > 0 && allOf(out, s) {
				set(out, k)
			}
		})
		return out
	}
	f = toPositions(t, f)
	out := slices.Clone(toPositions(t, g))
	kids := t.ChildRanges()
	forEachDown(f, out, int32(len(kids)), func(k int32) {
		if r := kids[k]; r[0] < r[1] && allIn(out, r[0], r[1]) {
			set(out, k)
		}
	})
	return toMembers(t, out)
}

// EF returns ∃◇f: some extension (including the member itself)
// satisfies f. EF f = E[true U f].
func EF(t *universe.Transitions, f []uint64) []uint64 { return EU(t, trueVec(t), f) }

// AF returns ∀◇f: every maximal extension path satisfies f somewhere.
// AF f = A[true U f].
func AF(t *universe.Transitions, f []uint64) []uint64 { return AU(t, trueVec(t), f) }

// AG returns ∀□f: f holds at the member and at every extension.
// AG f = ¬EF ¬f.
func AG(t *universe.Transitions, f []uint64) []uint64 { return not(t, EF(t, not(t, f))) }

// EG returns ∃□f: some maximal extension path satisfies f throughout.
// EG f = ¬AF ¬f.
func EG(t *universe.Transitions, f []uint64) []uint64 { return not(t, AF(t, not(t, f))) }

// Once returns ◆f (past-eventually): f holds at the member or at some
// prefix of it — the least fixpoint of Z = f ∨ EY Z, one sweep from the
// shortest members up that fills each holding member's child range.
func Once(t *universe.Transitions, f []uint64) []uint64 {
	kernOnce.Inc()
	out := slices.Clone(toPositions(t, f))
	kids := t.ChildRanges()
	forEachUp(out, int32(len(kids)), func(k int32) { fill(out, kids[k][0], kids[k][1]) })
	return toMembers(t, out)
}

// Hist returns ■f (historically): f holds at the member and at every
// prefix of it. Hist f = ¬Once ¬f.
func Hist(t *universe.Transitions, f []uint64) []uint64 { return not(t, Once(t, not(t, f))) }
