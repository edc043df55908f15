package knowledge

import "math/bits"

// bitset is a truth vector over the members of a universe, one bit per
// member, packed 64 to a word. The vectorized evaluator computes one
// bitset per distinct subformula: boolean connectives are then
// word-parallel operations and knowledge operators are per-class
// all-reduces over a partition table.
type bitset []uint64

// newBitset returns an all-false vector for n members.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// get reports bit i.
func (v bitset) get(i int) bool { return v[i>>6]&(1<<(uint(i)&63)) != 0 }

// set turns bit i on.
func (v bitset) set(i int) { v[i>>6] |= 1 << (uint(i) & 63) }

// fill turns the first n bits on and leaves the tail zero.
func (v bitset) fill(n int) {
	for w := range v {
		v[w] = ^uint64(0)
	}
	v.maskTail(n)
}

// maskTail zeroes the bits past n, keeping word-level invariants (the
// popcount and all-true checks assume a clean tail).
func (v bitset) maskTail(n int) {
	if r := uint(n) & 63; r != 0 && len(v) > 0 {
		v[len(v)-1] &= (1 << r) - 1
	}
}

// clone returns a copy of v.
func (v bitset) clone() bitset {
	out := make(bitset, len(v))
	copy(out, v)
	return out
}

// and sets v = v ∧ o.
func (v bitset) and(o bitset) {
	for w := range v {
		v[w] &= o[w]
	}
}

// or sets v = v ∨ o.
func (v bitset) or(o bitset) {
	for w := range v {
		v[w] |= o[w]
	}
}

// not complements the first n bits.
func (v bitset) not(n int) {
	for w := range v {
		v[w] = ^v[w]
	}
	v.maskTail(n)
}

// count reports how many of the bits are on (the tail is kept clean, so
// this is the number of members where the formula holds).
func (v bitset) count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// countAnd reports how many bits v and o have on in common, without
// materializing v ∧ o.
func (v bitset) countAnd(o bitset) int {
	n := 0
	for w, x := range v {
		n += bits.OnesCount64(x & o[w])
	}
	return n
}

// allSet reports whether every one of the first n bits is on.
func (v bitset) allSet(n int) bool {
	full := n >> 6
	for w := 0; w < full; w++ {
		if v[w] != ^uint64(0) {
			return false
		}
	}
	if r := uint(n) & 63; r != 0 {
		return v[full] == (1<<r)-1
	}
	return true
}

// firstClear returns the index of the first off bit among the first n,
// or -1 when all are on.
func (v bitset) firstClear(n int) int {
	for w := range v {
		if inv := ^v[w]; inv != 0 {
			i := w<<6 + bits.TrailingZeros64(inv)
			if i < n {
				return i
			}
			return -1
		}
	}
	return -1
}
