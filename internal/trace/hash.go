package trace

import "math/bits"

// Hash128 is a 128-bit canonical hash of an event sequence. It is the
// incremental counterpart of the canonical string key: two computations
// with the same event sequence always have equal hashes, and the hash
// of a one-event extension is computed from the parent's hash and the
// new event alone, in O(len(event)) — never by re-reading the prefix.
// That property is what lets the enumeration engine canonically order
// and index hundreds of thousands of computations without ever
// materializing their string keys.
//
// Distinct sequences collide with probability ~2^-128 per pair. The
// engine orders siblings by hash and fails the enumeration with
// universe.ErrHashCollision if two of them share one; a universe's hash
// index fails the same way on two members of one length.
type Hash128 struct {
	Hi, Lo uint64
}

// Mixing constants: the splitmix64 golden-ratio increment and two of
// the xxhash64 primes. The two lanes use different multipliers and are
// cross-folded at field and event boundaries, so lane-local collisions
// do not align.
const (
	hashK1 = 0x9E3779B97F4A7C15
	hashK2 = 0xC2B2AE3D27D4EB4F
	hashK3 = 0x165667B19E3779F9
)

// emptyHash seeds the chain: the hash of the empty computation. It is
// an arbitrary nonzero constant so that table sentinels never need to
// special-case the null computation.
var emptyHash = Hash128{Hi: 0x27D4EB2F165667C5, Lo: 0x85EBCA77C2B2AE63}

// mixBytes folds one delimited field into the hash. The field length is
// folded in as a terminator so concatenation cannot alias field
// boundaries ("ab"+"c" vs "a"+"bc").
func (h Hash128) mixBytes(s string) Hash128 {
	lo, hi := h.Lo, h.Hi
	for i := 0; i < len(s); i++ {
		b := uint64(s[i])
		lo = (lo ^ b) * hashK1
		hi = (hi ^ (b + 0x9E)) * hashK2
	}
	lo ^= (uint64(len(s)) + 1) * hashK3
	hi = bits.RotateLeft64(hi, 27) + lo
	lo = bits.RotateLeft64(lo, 31) ^ (hi >> 7)
	return Hash128{Hi: hi, Lo: lo}
}

// mixUint folds one integer field into the hash.
func (h Hash128) mixUint(v uint64) Hash128 {
	lo := (h.Lo ^ v) * hashK1
	hi := (h.Hi ^ bits.RotateLeft64(v, 32)) * hashK2
	return Hash128{Hi: hi + (lo >> 29), Lo: lo ^ (hi >> 31)}
}

// ExtendEvent returns the hash of the sequence (h; e): the canonical
// hash of the one-event extension of the sequence hashed by h. Every
// identifying field of the event is folded in (the same fields the
// canonical string key encodes), followed by a per-event avalanche so
// event boundaries never alias.
func (h Hash128) ExtendEvent(e Event) Hash128 {
	h = h.mixBytes(string(e.Proc))
	h = h.mixBytes(string(e.ID))
	h = h.mixUint(uint64(e.Kind))
	h = h.mixBytes(string(e.Msg))
	h = h.mixBytes(string(e.Peer))
	h = h.mixBytes(e.Tag)
	lo := (h.Lo ^ (h.Hi >> 32)) * hashK1
	hi := (h.Hi ^ (lo >> 29)) * hashK2
	return Hash128{Hi: hi, Lo: lo ^ (hi >> 32)}
}

// Less orders hashes lexicographically by (Hi, Lo). It is the order
// the universe's member order sorts siblings by.
func (h Hash128) Less(o Hash128) bool {
	if h.Hi != o.Hi {
		return h.Hi < o.Hi
	}
	return h.Lo < o.Lo
}
