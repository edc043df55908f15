package knowledge

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hpl/internal/temporal"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Evaluator evaluates epistemic formulas over a universe set-at-a-time.
// Every distinct subformula is evaluated once while resident, bottom-up,
// into a bitset truth vector over all members. An atom that is a history
// count (every predicate this module ships) is one fold down the
// universe's prefix index, and an opaque one is sampled member by
// member. Boolean connectives are word-parallel operations, (P knows
// F) is one all-reduce per class of the relation's partition for P. Common
// knowledge is evaluated by components (the paper's Lemma 3): C F
// holds at x exactly when F holds throughout x's component in the
// union of the singleton relations, so it is "every member" when F is
// valid, "none" on a one-component universe otherwise, and one
// all-reduce per component in general (the relation labels them
// once). Temporal operators (EX/EF/AG/EU/… and their past duals) are
// single sweeps over the child ranges of the universe's
// prefix-extension transition graph — see package temporal — so
// epistemic and temporal modalities nest freely at one pass per
// distinct subformula.
// Vectors are memoized by hash-consed formula ID (see the
// interner in formula.go), so nested knowledge costs each subformula
// one pass over the universe no matter how many members are queried.
// The memo grows without bound unless its owner trims it: MemoBytes
// reports what it holds, and TrimMemo drops every vector but the atoms'
// and constants', recomputing each on its next use.
//
// K and C read their classes and components from the evaluator's
// Relation. NewEvaluator takes the universe's own: [P]-isomorphism, the
// paper's relation. NewRelationEvaluator takes another, such as the
// state-based isomorphism of §6 (package stateiso); every other
// operator is the same under either.
//
// An Evaluator is safe for concurrent use: queries serialize on an
// internal lock, and the partition tables they share are built
// goroutine-safely by the relation. It serves every query; the one
// per-member path left is EvalNaive, the paper's definitions evaluated
// directly, which the differential tests use as the oracle and the
// benchmarks BenchmarkAblationVectorizedEval and
// BenchmarkAblationKnowledgeMemo at the repository root as the
// baseline.
type Evaluator struct {
	u   *universe.Universe
	rel Relation

	mu sync.Mutex
	in *interner
	// vecs[id] is the truth vector of interned node id: nil until the
	// node is first evaluated, and again once TrimMemo evicts it.
	vecs []bitset
	// words counts the words of all resident vectors and pinnedWords
	// those of atoms and constants; resident counts the vectors.
	words, pinnedWords int64
	resident           int
	evictions          int64
	// bytes and pinned are MemoBytes and PinnedBytes, published after
	// every query and trim so that a cache can read them without
	// waiting for the lock.
	bytes, pinned atomic.Int64
}

// Relation is the indistinguishability relation K and C quantify
// over: an equivalence on the universe's members per process set.
// *universe.Universe is one, [P]-isomorphism.
type Relation interface {
	// Partition returns the classes of the relation for P. A larger
	// process set must relate no more members (fact 3 of §4.1).
	Partition(p trace.ProcSet) *universe.Partition
	// Components labels the members by the components of the union of
	// the singleton relations, as universe.Components does.
	Components() (label []int32, n int)
}

// NewEvaluator builds an evaluator over the universe, under the
// paper's [P]-isomorphism.
func NewEvaluator(u *universe.Universe) *Evaluator {
	return NewRelationEvaluator(u, u)
}

// NewRelationEvaluator builds an evaluator over the universe whose
// knowledge operators quantify over rel instead.
func NewRelationEvaluator(u *universe.Universe, rel Relation) *Evaluator {
	return &Evaluator{u: u, rel: rel, in: newInterner()}
}

// Universe returns the evaluator's universe.
func (e *Evaluator) Universe() *universe.Universe { return e.u }

// Holds evaluates f at computation x, which must be a member of the
// universe (knowledge quantifies over the universe, so evaluating at a
// non-member would silently use an incomplete class). On a symmetry
// quotient, f must additionally be invariant under the quotient's group
// — see ValidateSymmetric — or an *AsymmetryError is returned.
func (e *Evaluator) Holds(f Formula, x *trace.Computation) (bool, error) {
	if err := e.ValidateSymmetric(f); err != nil {
		return false, err
	}
	i := e.u.IndexOf(x)
	if i < 0 {
		return false, fmt.Errorf("knowledge: computation %q is not in the universe", x.Key())
	}
	return e.HoldsAt(f, i), nil
}

// ValidateSymmetric checks that f is evaluable over the evaluator's
// universe: on a symmetry quotient every atom and every knowledge
// operator must respect the quotient's group (see the package-level
// ValidateSymmetric), and on a commutation quotient f must not read the
// interleaving (see ValidateCommuting); on a full universe every
// formula validates. The non-error-returning query paths (HoldsAt,
// Valid, Summary) enforce the same requirement with a panic from the
// evaluation core — call this first to turn it into an error.
func (e *Evaluator) ValidateSymmetric(f Formula) error {
	return validateQuotient(f, e.u.Symmetry(), e.u.Commuting())
}

// MustHolds is Holds for members; it panics when x is not a member.
func (e *Evaluator) MustHolds(f Formula, x *trace.Computation) bool {
	v, err := e.Holds(f, x)
	if err != nil {
		panic(err)
	}
	return v
}

// HoldsAt evaluates f at the i-th member.
func (e *Evaluator) HoldsAt(f Formula, i int) bool {
	return e.vectorOf(f).get(i)
}

// TruthVector returns the truth value of f at every member, in member
// order. The slice is freshly allocated; callers own it.
func (e *Evaluator) TruthVector(f Formula) []bool {
	v := e.vectorOf(f)
	out := make([]bool, e.u.Len())
	for i := range out {
		out[i] = v.get(i)
	}
	return out
}

// Summary evaluates f over the whole universe and reports how many
// members it holds at and the first member it fails at (-1 when valid).
func (e *Evaluator) Summary(f Formula) (holding, firstFailure int) {
	v := e.vectorOf(f)
	return v.count(), v.firstClear(e.u.Len())
}

// CountWeighted reports at how many members of the FULL universe f
// holds. On a symmetry quotient each member counts with its orbit size
// (a G-invariant formula holds at a representative exactly when it
// holds across its whole orbit), summed as one masked popcount of f's
// truth vector per weight class (universe.WeightClasses), so the cost
// is a handful of word passes however many members the quotient has.
// On a full universe it equals Summary's holding count. This is what
// makes quotient counts comparable with full-universe counts.
func (e *Evaluator) CountWeighted(f Formula) int64 {
	return e.weigh(e.vectorOf(f))
}

// WeightedSummary is Summary and CountWeighted from one memo lookup:
// how many members f holds at, the first member it fails at (-1 when
// valid), and how many members of the full universe it holds at.
func (e *Evaluator) WeightedSummary(f Formula) (holding, firstFailure int, weighted int64) {
	v := e.vectorOf(f)
	holding = v.count()
	if e.u.IsQuotient() {
		weighted = e.weigh(v)
	} else {
		weighted = int64(holding)
	}
	return holding, v.firstClear(e.u.Len()), weighted
}

// weigh counts the members of the full universe that truth vector v
// stands for: Σ size·|v ∧ class| over the quotient's weight classes,
// or v's population on a full universe.
func (e *Evaluator) weigh(v bitset) int64 {
	if !e.u.IsQuotient() {
		return int64(v.count())
	}
	var n int64
	for _, c := range e.u.WeightClasses() {
		n += c.Size * int64(v.countAnd(c.Members))
	}
	return n
}

// Valid reports whether f holds at every member of the universe.
func (e *Evaluator) Valid(f Formula) bool {
	return e.vectorOf(f).allSet(e.u.Len())
}

// LocalTo reports whether f is local to P over the universe: P is sure of
// f at every member ("the value of b is always known to P", §4.2).
func (e *Evaluator) LocalTo(f Formula, p trace.ProcSet) bool {
	return e.Valid(Sure(p, f))
}

// IsConstant reports whether f has the same value at every member.
func (e *Evaluator) IsConstant(f Formula) bool {
	c := e.vectorOf(f).count()
	return c == 0 || c == e.u.Len()
}

// vectorOf interns f and returns its memoized truth vector. The
// returned bitset is shared and read-only; the lock covers only the
// intern-and-evaluate step, so concurrent queries serialize on vector
// construction but read completed vectors without contention.
func (e *Evaluator) vectorOf(f Formula) bitset {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.vector(e.in.intern(f))
	e.publishLocked()
	return v
}

// vector computes (or fetches) the truth vector of interned node id.
// Children are fully evaluated before the parent's vector is stored, so
// every result — common knowledge included — lands
// through this one memo path; there is no partially-filled vector to
// re-fetch after a nested evaluation, by construction.
func (e *Evaluator) vector(id int32) bitset {
	if int(id) < len(e.vecs) && e.vecs[id] != nil {
		memoHits.Inc()
		return e.vecs[id]
	}
	memoMisses.Inc()
	nd := e.in.nodes[id]
	n := e.u.Len()
	start := time.Now()
	var v bitset
	switch nd.kind {
	case inConst:
		v = newBitset(n)
		if nd.val {
			v.fill(n)
		}
	case inAtom:
		v = e.atomVector(nd.pred)
	case inNot:
		v = e.vector(nd.l).clone()
		v.not(n)
	case inAnd:
		v = e.vector(nd.l).clone()
		v.and(e.vector(nd.r))
	case inOr:
		v = e.vector(nd.l).clone()
		v.or(e.vector(nd.r))
	case inKnows:
		v = e.knowsVector(nd.set, e.vector(nd.l))
	case inCommon:
		v = e.commonVector(e.vector(nd.l))
	case inEX:
		v = bitset(temporal.EX(e.u.Transitions(), e.vector(nd.l)))
	case inEU:
		l, r := e.vector(nd.l), e.vector(nd.r)
		v = bitset(temporal.EU(e.u.Transitions(), l, r))
	case inAU:
		l, r := e.vector(nd.l), e.vector(nd.r)
		v = bitset(temporal.AU(e.u.Transitions(), l, r))
	case inEY:
		e.refusePast()
		v = bitset(temporal.EY(e.u.Transitions(), e.vector(nd.l)))
	case inOnce:
		e.refusePast()
		v = bitset(temporal.Once(e.u.Transitions(), e.vector(nd.l)))
	default:
		panic(fmt.Sprintf("knowledge: unknown interned node kind %d", nd.kind))
	}
	evalKind[nd.kind].ObserveDuration(time.Since(start))
	// Grow geometrically: a session that keeps meeting new formulas
	// must not copy its whole slot table for every new node.
	if need := len(e.in.nodes); need > len(e.vecs) {
		e.vecs = slices.Grow(e.vecs, need-len(e.vecs))[:need]
	}
	e.vecs[id] = v
	e.words += int64(len(v))
	e.resident++
	if nd.pinned() {
		e.pinnedWords += int64(len(v))
	}
	return v
}

// refusePast is the backstop for the non-error-returning query paths on
// a commutation quotient: the past kernels follow the prefix tree, one
// linearization per class, and would answer for it alone.
func (e *Evaluator) refusePast() {
	if e.u.Commuting() {
		panic(&InterleavingError{Part: "a past operator", Reason: pastReason})
	}
}

// MemoStats describes an evaluator's memo.
type MemoStats struct {
	// Bytes is MemoBytes.
	Bytes int64
	// Vectors counts the resident truth vectors, Evictions the vectors
	// TrimMemo has dropped.
	Vectors   int
	Evictions int64
}

// MemoStats reports the memo's size and evictions.
func (e *Evaluator) MemoStats() MemoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return MemoStats{Bytes: e.memoBytesLocked(), Vectors: e.resident, Evictions: e.evictions}
}

// MemoBytes reports the bytes the memo holds: every resident truth
// vector, the slot table that indexes them, and the interner's nodes and
// keys. It is what the last query or trim left, read without the lock,
// so a cache may poll it while other queries run.
func (e *Evaluator) MemoBytes() int64 { return e.bytes.Load() }

// PinnedBytes reports the part of MemoBytes that TrimMemo cannot free:
// the atom and constant vectors with their slots and interned nodes.
func (e *Evaluator) PinnedBytes() int64 { return e.pinned.Load() }

// slotBytes is the memo's cost per node slot.
const slotBytes = int64(unsafe.Sizeof(bitset(nil)))

func (e *Evaluator) memoBytesLocked() int64 {
	return 8*e.words + slotBytes*int64(cap(e.vecs)) + e.in.bytes()
}

func (e *Evaluator) publishLocked() {
	e.bytes.Store(e.memoBytesLocked())
	e.pinned.Store(8*e.pinnedWords + slotBytes*int64(e.in.pinned) + e.in.pinnedBytes)
}

// TrimMemo drops every truth vector but the atoms' and constants', the
// leaves the others are recomputed from, and rebuilds the interner with
// those leaves alone, so that the memo shrinks to PinnedBytes. It
// reports how many bytes it freed. It waits for the query in progress,
// so it never runs inside an evaluation. A later query recomputes what
// it needs. Dropped vectors are never reused: a caller may still be
// reading one.
func (e *Evaluator) TrimMemo() (freed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.memoBytesLocked()
	in := newInterner()
	in.nodes = make([]inode, 0, e.in.pinned)
	vecs := make([]bitset, e.in.pinned)
	resident := 0
	for id, nd := range e.in.nodes {
		if nd.pinned() {
			nid := in.leaf(nd)
			if id < len(e.vecs) && e.vecs[id] != nil {
				vecs[nid] = e.vecs[id]
				resident++
			}
		}
	}
	dropped := e.resident - resident
	e.in, e.vecs, e.words, e.resident = in, vecs, e.pinnedWords, resident
	e.evictions += int64(dropped)
	memoEvictions.Add(int64(dropped))
	e.publishLocked()
	return before - e.memoBytesLocked()
}

// atomVector evaluates a predicate at every member and records the time
// as an eval.atom phase in the universe's trace. A history count is one
// fold down the prefix index (universe.HistorySums) and one test per
// member. An opaque predicate is sampled serially at every member's
// computation, which builds every member view.
func (e *Evaluator) atomVector(p Predicate) bitset {
	// Backstop for the non-error-returning query paths: an asymmetric
	// predicate sampled at orbit representatives would yield orbit-
	// dependent garbage, never a slightly-off answer worth returning.
	if s := e.u.Symmetry(); !p.SymmetricUnder(s) {
		panic(&AsymmetryError{
			Part:   fmt.Sprintf("predicate %q", p.Name()),
			Group:  s.Key(),
			Reason: "declare it Symmetric(), give it a FixedOn() support the group fixes, or evaluate on the full universe",
		})
	}
	if p.count == nil && e.u.Commuting() {
		panic(&InterleavingError{Part: fmt.Sprintf("predicate %q", p.Name()), Reason: opaqueReason})
	}
	defer e.u.Trace().Start("eval.atom").End()
	n := e.u.Len()
	v := newBitset(n)
	if c := p.count; c != nil {
		for j, sum := range e.u.HistorySums(c.weight) {
			if c.test(sum) {
				v.set(j)
			}
		}
		return v
	}
	for i := 0; i < n; i++ {
		if p.Holds(e.u.At(i)) {
			v.set(i)
		}
	}
	return v
}

// knowsVector computes (P knows F) from F's vector: one all-reduce per
// class of the relation's partition for P — a class's members either
// all know F or none do, so the work is linear in the universe rather
// than quadratic in class sizes as in the per-member paths.
func (e *Evaluator) knowsVector(p trace.ProcSet, fv bitset) bitset {
	// Backstop for the non-error-returning query paths: when P splits a
	// symmetry class, the [P]-classes of a quotient are not unions of
	// orbits and the all-reduce below computes no meaningful modality.
	// (Common knowledge is exempt: its components are taken over the
	// twisted singleton partitions, which is sound — see
	// universe.NewPartition and universe.Components.)
	if s := e.u.Symmetry(); s != nil && !s.Invariant(p) {
		panic(&AsymmetryError{
			Part:   fmt.Sprintf("knowledge operator %s knows …", p),
			Group:  s.Key(),
			Reason: "the process set splits a symmetry class; use a union of whole classes or evaluate on the full universe",
		})
	}
	pt := e.rel.Partition(p)
	out := newBitset(e.u.Len())
	for c := int32(0); c < int32(pt.NumClasses()); c++ {
		ms := pt.MembersOf(c)
		all := true
		for _, j := range ms {
			if !fv.get(j) {
				all = false
				break
			}
		}
		if all {
			for _, j := range ms {
				out.set(j)
			}
		}
	}
	return out
}

// commonVector computes common knowledge by components (Lemma 3): the
// greatest fixpoint S = {x : F at x ∧ ∀p ∈ D: [p]-class of x ⊆ S} is
// exactly the set of members whose component in the union of the
// singleton relations lies inside F (Relation.Components). A valid F
// needs no labels; otherwise one component means C F holds nowhere,
// and several take one all-reduce per component, as K does per class.
func (e *Evaluator) commonVector(fv bitset) bitset {
	n := e.u.Len()
	out := newBitset(n)
	if fv.allSet(n) {
		out.fill(n)
		return out
	}
	label, k := e.rel.Components()
	if k == 1 {
		return out
	}
	inF := make([]bool, k)
	for c := range inF {
		inF[c] = true
	}
	for j, c := range label {
		if !fv.get(j) {
			inF[c] = false
		}
	}
	for j, c := range label {
		if inF[c] {
			out.set(j)
		}
	}
	return out
}
