// Package knowledge implements the paper's knowledge theory (§4):
// predicates on system computations, the knowledge operator
//
//	(P knows b) at x  ≡  ∀y: x [P] y : b at y,
//
// derived operators sure/unsure, local predicates, common knowledge as a
// greatest fixpoint, and machine-checkable statements of the paper's
// knowledge facts (K1–K12), local-predicate facts (LP1–LP8), Lemma 3,
// Lemma 4, Theorem 4 (knowledge along isomorphism paths), Theorem 5
// (knowledge gain) and Theorem 6 (knowledge loss).
//
// Because knowledge quantifies over all computations of the system,
// evaluation happens against a universe.Universe that enumerates them
// exhaustively up to a bound (see that package's documentation).
package knowledge

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"hpl/internal/trace"
)

// Formula is an epistemic formula over system computations. Formulas are
// immutable trees built from the constructors in this file. Key is a
// canonical encoding used for memoization: formulas with equal keys are
// treated as identical, so predicate names must uniquely identify their
// semantics within one evaluation.
type Formula interface {
	// Key returns the canonical encoding of the formula.
	Key() string
	// String renders the formula in the paper's notation.
	String() string
}

// Atom lifts a predicate to a formula.
type Atom struct{ Pred Predicate }

// NotF is logical negation.
type NotF struct{ F Formula }

// AndF is logical conjunction.
type AndF struct{ L, R Formula }

// OrF is logical disjunction.
type OrF struct{ L, R Formula }

// ImpliesF is material implication.
type ImpliesF struct{ L, R Formula }

// KnowsF is the knowledge operator: (P knows F).
type KnowsF struct {
	P trace.ProcSet
	F Formula
}

// SureF is the paper's sure operator: (P knows F) or (P knows ¬F).
type SureF struct {
	P trace.ProcSet
	F Formula
}

// CommonF is common knowledge of F among all processes of the system,
// the greatest fixpoint of  C ≡ F ∧ ∀p: (p knows C).
type CommonF struct{ F Formula }

// ConstF is a constant formula (true or false everywhere).
type ConstF struct{ Value bool }

// Temporal operators, interpreted over the universe's prefix-extension
// transition graph (universe.Transitions): one step is one extension of
// the computation by one event, so the future modalities quantify over
// extensions and the past modalities over prefixes. Path semantics are
// finite — see package temporal for the leaf and root conventions.

// EXF is ∃◯F: some one-event extension satisfies F.
type EXF struct{ F Formula }

// AXF is ∀◯F: every one-event extension satisfies F (vacuous at
// maximal computations).
type AXF struct{ F Formula }

// EFF is ∃◇F: some extension (including the current computation)
// satisfies F.
type EFF struct{ F Formula }

// AFF is ∀◇F: every maximal extension path satisfies F somewhere.
type AFF struct{ F Formula }

// EGF is ∃□F: some maximal extension path satisfies F throughout.
type EGF struct{ F Formula }

// AGF is ∀□F: F holds now and at every extension.
type AGF struct{ F Formula }

// EUF is E[L U R]: some extension path reaches R with L holding until
// then.
type EUF struct{ L, R Formula }

// AUF is A[L U R]: every maximal extension path reaches R with L
// holding until then.
type AUF struct{ L, R Formula }

// EYF is ∃●F (exists-yesterday): the one-event-shorter prefix
// satisfies F.
type EYF struct{ F Formula }

// AYF is ∀●F: vacuous at the null computation, otherwise equal to EYF
// (prefixes are unique).
type AYF struct{ F Formula }

// OnceF is ◆F: F holds now or held at some prefix.
type OnceF struct{ F Formula }

// HistF is ■F: F holds now and held at every prefix.
type HistF struct{ F Formula }

// Constructors — preferred over struct literals for readability.

// NewAtom wraps a predicate.
func NewAtom(p Predicate) Formula { return Atom{Pred: p} }

// Not negates f.
func Not(f Formula) Formula { return NotF{F: f} }

// And conjoins formulas left-associatively.
func And(fs ...Formula) Formula {
	if len(fs) == 0 {
		return ConstF{Value: true}
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = AndF{L: out, R: f}
	}
	return out
}

// Or disjoins formulas left-associatively.
func Or(fs ...Formula) Formula {
	if len(fs) == 0 {
		return ConstF{Value: false}
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = OrF{L: out, R: f}
	}
	return out
}

// Implies builds l → r.
func Implies(l, r Formula) Formula { return ImpliesF{L: l, R: r} }

// Knows builds (P knows f).
func Knows(p trace.ProcSet, f Formula) Formula { return KnowsF{P: p, F: f} }

// Sure builds (P sure f).
func Sure(p trace.ProcSet, f Formula) Formula { return SureF{P: p, F: f} }

// Common builds common knowledge of f.
func Common(f Formula) Formula { return CommonF{F: f} }

// Temporal constructors.

// EX builds ∃◯f: some one-event extension satisfies f.
func EX(f Formula) Formula { return EXF{F: f} }

// AX builds ∀◯f: every one-event extension satisfies f.
func AX(f Formula) Formula { return AXF{F: f} }

// EF builds ∃◇f: f is reachable along some extension.
func EF(f Formula) Formula { return EFF{F: f} }

// AF builds ∀◇f: f is inevitable along every maximal extension path.
func AF(f Formula) Formula { return AFF{F: f} }

// EG builds ∃□f: f persists along some maximal extension path.
func EG(f Formula) Formula { return EGF{F: f} }

// AG builds ∀□f: f holds now and in every extension.
func AG(f Formula) Formula { return AGF{F: f} }

// EU builds E[l U r].
func EU(l, r Formula) Formula { return EUF{L: l, R: r} }

// AU builds A[l U r].
func AU(l, r Formula) Formula { return AUF{L: l, R: r} }

// EY builds ∃●f: the one-event-shorter prefix satisfies f.
func EY(f Formula) Formula { return EYF{F: f} }

// AY builds ∀●f: f at the prefix, vacuous at null.
func AY(f Formula) Formula { return AYF{F: f} }

// Once builds ◆f: f holds now or held at some prefix.
func Once(f Formula) Formula { return OnceF{F: f} }

// Hist builds ■f: f holds now and held at every prefix.
func Hist(f Formula) Formula { return HistF{F: f} }

// True and False are the constant formulas.
var (
	True  Formula = ConstF{Value: true}
	False Formula = ConstF{Value: false}
)

// NestKnows builds P1 knows P2 knows … Pn knows f, associating to the
// right as in the paper's convention.
func NestKnows(sets []trace.ProcSet, f Formula) Formula {
	out := f
	for i := len(sets) - 1; i >= 0; i-- {
		out = Knows(sets[i], out)
	}
	return out
}

// Key implementations.

func (a Atom) Key() string     { return "a(" + a.Pred.Name() + ")" }
func (n NotF) Key() string     { return "!(" + n.F.Key() + ")" }
func (c AndF) Key() string     { return "&(" + c.L.Key() + "," + c.R.Key() + ")" }
func (d OrF) Key() string      { return "|(" + d.L.Key() + "," + d.R.Key() + ")" }
func (i ImpliesF) Key() string { return ">(" + i.L.Key() + "," + i.R.Key() + ")" }
func (k KnowsF) Key() string   { return "K{" + k.P.Key() + "}(" + k.F.Key() + ")" }
func (s SureF) Key() string    { return "S{" + s.P.Key() + "}(" + s.F.Key() + ")" }
func (c CommonF) Key() string  { return "C(" + c.F.Key() + ")" }
func (c ConstF) Key() string {
	if c.Value {
		return "true"
	}
	return "false"
}
func (f EXF) Key() string   { return "EX(" + f.F.Key() + ")" }
func (f AXF) Key() string   { return "AX(" + f.F.Key() + ")" }
func (f EFF) Key() string   { return "EF(" + f.F.Key() + ")" }
func (f AFF) Key() string   { return "AF(" + f.F.Key() + ")" }
func (f EGF) Key() string   { return "EG(" + f.F.Key() + ")" }
func (f AGF) Key() string   { return "AG(" + f.F.Key() + ")" }
func (f EUF) Key() string   { return "EU(" + f.L.Key() + "," + f.R.Key() + ")" }
func (f AUF) Key() string   { return "AU(" + f.L.Key() + "," + f.R.Key() + ")" }
func (f EYF) Key() string   { return "EY(" + f.F.Key() + ")" }
func (f AYF) Key() string   { return "AY(" + f.F.Key() + ")" }
func (f OnceF) Key() string { return "O(" + f.F.Key() + ")" }
func (f HistF) Key() string { return "H(" + f.F.Key() + ")" }

// String implementations render the paper's notation.

func (a Atom) String() string     { return a.Pred.Name() }
func (n NotF) String() string     { return "¬" + paren(n.F) }
func (c AndF) String() string     { return paren(c.L) + " ∧ " + paren(c.R) }
func (d OrF) String() string      { return paren(d.L) + " ∨ " + paren(d.R) }
func (i ImpliesF) String() string { return paren(i.L) + " ⇒ " + paren(i.R) }
func (k KnowsF) String() string   { return k.P.String() + " knows " + paren(k.F) }
func (s SureF) String() string    { return s.P.String() + " sure " + paren(s.F) }
func (c CommonF) String() string  { return "common " + paren(c.F) }
func (c ConstF) String() string   { return c.Key() }
func (f EXF) String() string      { return "EX " + paren(f.F) }
func (f AXF) String() string      { return "AX " + paren(f.F) }
func (f EFF) String() string      { return "EF " + paren(f.F) }
func (f AFF) String() string      { return "AF " + paren(f.F) }
func (f EGF) String() string      { return "EG " + paren(f.F) }
func (f AGF) String() string      { return "AG " + paren(f.F) }
func (f EUF) String() string      { return "E[" + f.L.String() + " U " + f.R.String() + "]" }
func (f AUF) String() string      { return "A[" + f.L.String() + " U " + f.R.String() + "]" }
func (f EYF) String() string      { return "EY " + paren(f.F) }
func (f AYF) String() string      { return "AY " + paren(f.F) }
func (f OnceF) String() string    { return "Once " + paren(f.F) }
func (f HistF) String() string    { return "Hist " + paren(f.F) }

func paren(f Formula) string {
	s := f.String()
	if strings.ContainsAny(s, " ") {
		return "(" + s + ")"
	}
	return s
}

// Interface-compliance assertions.
var (
	_ Formula = Atom{}
	_ Formula = NotF{}
	_ Formula = AndF{}
	_ Formula = OrF{}
	_ Formula = ImpliesF{}
	_ Formula = KnowsF{}
	_ Formula = SureF{}
	_ Formula = CommonF{}
	_ Formula = ConstF{}
	_ Formula = EXF{}
	_ Formula = AXF{}
	_ Formula = EFF{}
	_ Formula = AFF{}
	_ Formula = EGF{}
	_ Formula = AGF{}
	_ Formula = EUF{}
	_ Formula = AUF{}
	_ Formula = EYF{}
	_ Formula = AYF{}
	_ Formula = OnceF{}
	_ Formula = HistF{}
)

// --- Structural hash-consing ---

// The vectorized evaluator keys its memo by dense formula IDs rather
// than recomputed Key() strings. An interner assigns IDs bottom-up: a
// node's identity is its kind plus the IDs of its children (plus the
// predicate name for atoms, or the interned process set for knowledge
// operators), so structurally equal subformulas — however and whenever
// they were constructed — share one ID and therefore one truth vector.
// Derived operators desugar during interning (P sure F becomes
// (P knows F) ∨ (P knows ¬F), and L ⇒ R becomes ¬L ∨ R), which buys
// vector sharing between, say, Sure(P,F) and an explicit Knows(P,F).
// The temporal layer follows the same discipline: only EX, E-until,
// A-until, exists-yesterday and Once survive as interned kinds; the
// rest desugar through the CTL dualities (AX = ¬EX¬, EF = E[⊤ U ·],
// AF = A[⊤ U ·], AG = ¬EF¬, EG = ¬AF¬, AY = ¬EY¬, Hist = ¬Once¬), so
// AG f and an explicit ¬EF¬f share one truth vector.

// internKind enumerates the node kinds that survive desugaring.
type internKind uint8

const (
	inConst internKind = iota
	inAtom
	inNot
	inAnd
	inOr
	inKnows
	inCommon
	inEX   // ∃◯, one child
	inEU   // E[· U ·], two children
	inAU   // A[· U ·], two children
	inEY   // ∃●, one child
	inOnce // ◆, one child
)

// inode is one hash-consed formula node.
type inode struct {
	kind internKind
	l, r int32         // child IDs (inNot/inKnows/inCommon use l only)
	val  bool          // inConst
	pred Predicate     // inAtom
	set  trace.ProcSet // inKnows
}

// pinned reports whether the node's truth vector stays resident when
// the memo is trimmed: atoms and constants are the leaves every other
// vector is recomputed from.
func (n inode) pinned() bool { return n.kind == inConst || n.kind == inAtom }

// slot holds one interned node and, once evaluated, its truth vector.
// Slots live in pages that never move, so an evaluation reads a node and
// its vector without the interner's lock.
type slot struct {
	node inode
	// vec is the node's truth vector, valid once done is set. It is
	// written once, before done, and never modified.
	vec  bitset
	done atomic.Bool
	// mu is held by the goroutine computing vec: concurrent misses on
	// the node wait for that one computation instead of repeating it.
	mu sync.Mutex
}

// slotBytes is the memo's cost per node slot.
const slotBytes = int64(unsafe.Sizeof(slot{}))

// slotPages is an append-only slot table. Page 0 holds the first base
// slots and page k ≥ 1 the next base·2^(k−1), so the table grows
// geometrically, as a slice does, but never copies: a slot stays where it
// is while later ones are added, and readers holding its ID need no lock.
type slotPages struct {
	base, n, cap int // n slots are in use, cap allocated
	pages        [32][]slot
}

// at returns the slot of node id, which must have been added.
func (p *slotPages) at(id int32) *slot {
	k := bits.Len(uint(int(id) / p.base))
	if k == 0 {
		return &p.pages[0][id]
	}
	return &p.pages[k][int(id)-p.base<<(k-1)]
}

// add stores node n in a fresh slot and returns its ID.
func (p *slotPages) add(n inode) int32 {
	if p.n == p.cap {
		size := max(p.cap, p.base) // the next page doubles the table
		p.pages[bits.Len(uint(p.n/p.base))] = make([]slot, size)
		p.cap += size
	}
	id := int32(p.n)
	p.n++
	p.at(id).node = n
	return id
}

// interner hash-conses formulas into dense node IDs. Node keys are
// short (a kind tag plus child IDs) and are built in a reusable scratch
// buffer, so re-interning an already-seen formula does O(size) map
// probes and zero allocations — the evaluator interns on every query,
// and the hot path must not pay Key()-style string reconstruction. The
// interner is not safe for concurrent use; the evaluator interns under a
// lock and reads the slots, which never move, without it.
type interner struct {
	ids   map[string]int32
	psIDs map[string]int32
	slots slotPages
	buf   []byte // scratch for node keys; valid between child interns only
	psBuf []byte // scratch for process-set keys
	// keyBytes estimates the ids map: every key's bytes plus keyOverhead.
	keyBytes int64
	// pinned counts the atom and constant nodes, and pinnedKeyBytes
	// their share of keyBytes.
	pinned         int
	pinnedKeyBytes int64
}

// keyOverhead is a map entry's cost beyond its key's bytes: the slot
// (string header and ID) at the map's load factor, and the key
// allocation's rounding.
const keyOverhead = 40

// bytes estimates the interner's resident size: its slot pages, vectors
// excluded, and its key map.
func (t *interner) bytes() int64 {
	return int64(t.slots.cap)*slotBytes + t.keyBytes
}

// pinnedBytes is the part of bytes that atoms and constants take.
func (t *interner) pinnedBytes() int64 {
	return int64(t.pinned)*slotBytes + t.pinnedKeyBytes
}

// newInterner returns an empty interner whose first slot page holds
// base nodes.
func newInterner(base int) *interner {
	return &interner{
		ids:   make(map[string]int32),
		psIDs: make(map[string]int32),
		slots: slotPages{base: max(base, 1)},
	}
}

// procSetID interns a process set so knowledge-node keys stay short.
// The map probe is allocation-free; the key string materializes only
// the first time a set is seen.
func (t *interner) procSetID(p trace.ProcSet) int32 {
	t.psBuf = p.AppendKey(t.psBuf[:0])
	if id, ok := t.psIDs[string(t.psBuf)]; ok {
		return id
	}
	id := int32(len(t.psIDs))
	t.psIDs[string(t.psBuf)] = id
	return id
}

// node returns the ID for the scratch key, appending a fresh node when
// unseen. The map lookup on string(key) does not allocate; the string
// is materialized only on a miss.
func (t *interner) node(key []byte, n inode) int32 {
	if id, ok := t.ids[string(key)]; ok {
		return id
	}
	id := t.slots.add(n)
	t.ids[string(key)] = id
	t.keyBytes += int64(len(key)) + keyOverhead
	if n.pinned() {
		t.pinned++
		t.pinnedKeyBytes += int64(len(key)) + keyOverhead
	}
	return id
}

// key starts a fresh scratch key with the kind tag and child IDs.
func (t *interner) key(tag byte, ids ...int32) []byte {
	b := append(t.buf[:0], tag)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	t.buf = b
	return b
}

// ID-based constructors: compose already-interned children without
// allocating intermediate Formula boxes (Sure and Implies desugar
// through these on every query).

func (t *interner) internNot(l int32) int32 {
	return t.node(t.key('!', l), inode{kind: inNot, l: l})
}

func (t *interner) internAnd(l, r int32) int32 {
	return t.node(t.key('&', l, r), inode{kind: inAnd, l: l, r: r})
}

func (t *interner) internOr(l, r int32) int32 {
	return t.node(t.key('|', l, r), inode{kind: inOr, l: l, r: r})
}

func (t *interner) internKnows(p trace.ProcSet, l int32) int32 {
	return t.node(t.key('K', t.procSetID(p), l), inode{kind: inKnows, l: l, set: p})
}

func (t *interner) internEX(l int32) int32 {
	return t.node(t.key('X', l), inode{kind: inEX, l: l})
}

func (t *interner) internEU(l, r int32) int32 {
	return t.node(t.key('U', l, r), inode{kind: inEU, l: l, r: r})
}

func (t *interner) internAU(l, r int32) int32 {
	return t.node(t.key('A', l, r), inode{kind: inAU, l: l, r: r})
}

func (t *interner) internEY(l int32) int32 {
	return t.node(t.key('Y', l), inode{kind: inEY, l: l})
}

// internOnce interns Once over node l; Once over a monotone atom is the
// atom itself, since the member is one of its own prefixes.
func (t *interner) internOnce(l int32) int32 {
	if n := &t.slots.at(l).node; n.kind == inAtom && n.pred.Monotone() {
		return l
	}
	return t.node(t.key('P', l), inode{kind: inOnce, l: l})
}

func (t *interner) internTrue() int32 {
	return t.node(t.key('t'), inode{kind: inConst, val: true})
}

func (t *interner) internFalse() int32 {
	return t.node(t.key('f'), inode{kind: inConst})
}

func (t *interner) internAtom(p Predicate) int32 {
	b := append(t.buf[:0], 'a')
	b = append(b, p.Name()...)
	t.buf = b
	return t.node(b, inode{kind: inAtom, pred: p})
}

// leaf interns atom or constant node n; the evaluator rebuilds its
// interner from these when it trims its memo.
func (t *interner) leaf(n inode) int32 {
	switch {
	case n.kind == inAtom:
		return t.internAtom(n.pred)
	case n.val:
		return t.internTrue()
	default:
		return t.internFalse()
	}
}

// intern returns the dense ID of f, interning every subformula.
func (t *interner) intern(f Formula) int32 {
	switch f := f.(type) {
	case ConstF:
		if f.Value {
			return t.internTrue()
		}
		return t.internFalse()
	case Atom:
		return t.internAtom(f.Pred)
	case NotF:
		return t.internNot(t.intern(f.F))
	case AndF:
		l, r := t.intern(f.L), t.intern(f.R)
		return t.internAnd(l, r)
	case OrF:
		l, r := t.intern(f.L), t.intern(f.R)
		return t.internOr(l, r)
	case ImpliesF:
		nl := t.internNot(t.intern(f.L))
		r := t.intern(f.R)
		return t.internOr(nl, r)
	case KnowsF:
		return t.internKnows(f.P, t.intern(f.F))
	case SureF:
		inner := t.intern(f.F)
		kf := t.internKnows(f.P, inner)
		kn := t.internKnows(f.P, t.internNot(inner))
		return t.internOr(kf, kn)
	case CommonF:
		l := t.intern(f.F)
		return t.node(t.key('C', l), inode{kind: inCommon, l: l})
	case EXF:
		return t.internEX(t.intern(f.F))
	case AXF:
		return t.internNot(t.internEX(t.internNot(t.intern(f.F))))
	case EFF:
		return t.internEU(t.internTrue(), t.intern(f.F))
	case AFF:
		return t.internAU(t.internTrue(), t.intern(f.F))
	case AGF:
		inner := t.internEU(t.internTrue(), t.internNot(t.intern(f.F)))
		return t.internNot(inner)
	case EGF:
		inner := t.internAU(t.internTrue(), t.internNot(t.intern(f.F)))
		return t.internNot(inner)
	case EUF:
		l, r := t.intern(f.L), t.intern(f.R)
		return t.internEU(l, r)
	case AUF:
		l, r := t.intern(f.L), t.intern(f.R)
		return t.internAU(l, r)
	case EYF:
		return t.internEY(t.intern(f.F))
	case AYF:
		return t.internNot(t.internEY(t.internNot(t.intern(f.F))))
	case OnceF:
		return t.internOnce(t.intern(f.F))
	case HistF:
		return t.internNot(t.internOnce(t.internNot(t.intern(f.F))))
	default:
		panic(fmt.Sprintf("knowledge: unknown formula type %T", f))
	}
}
