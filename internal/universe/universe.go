// Package universe provides finite, exhaustively enumerated sets of system
// computations. Knowledge in the paper quantifies over *all* computations
// of a system ("(P knows b) at x ≡ ∀y: x [P] y : b at y"); on the small
// finite-state systems enumerated here the quantifier is exact rather than
// sampled, which is what makes the theorem checks in this repository
// meaningful model checks instead of statistical tests.
//
// A Universe stores its members as columns with no pointers in them:
// each member's hash, length and interned state vector, and the prefix
// index — each member's parent and interned last event. The
// enumeration engine and the snapshot loader build those columns
// directly, without a trace.Computation per member; At builds a
// member's computation from them only when a caller asks for it.
//
// A Universe decomposes into dense partition tables (see Partition), one
// per process set: the isomorphism class of x with respect to P is an
// array index rather than a scan or a string-map probe. Every table is
// built from one shared prefix index — each member's parent and interned
// last event — by numbering the local histories of P's processes in a
// trie, so no projection is ever spelled out as a string. Tables are
// built on first use and are safe to share between concurrent
// evaluators. The ablation benchmarks BenchmarkAblationProjectionIndex
// and BenchmarkAblationPartitionTable measure what that buys. The same
// index is the transition graph's edge list (see Transitions), and
// HistorySums folds per-event weights down it, which is how atoms that
// count a computation's events are evaluated at every member in one
// pass (BenchmarkAblationAtomFold).
package universe

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"hpl/internal/obs"
	"hpl/internal/trace"
)

// ErrTooLarge reports an enumeration that exceeded its computation cap.
var ErrTooLarge = errors.New("universe: enumeration exceeds cap")

// Universe is an immutable set of distinct computations of one system,
// together with the set D of all processes of that system.
//
// Its storage is columns with no pointers for the garbage collector to
// scan: each member's hash and length here, and its parent and interned
// last event in the prefix index. At builds a member's
// trace.Computation from those columns on first use; see At.
type Universe struct {
	// hash and length are the members' 128-bit canonical hashes and
	// event counts, in member order.
	hash   []trace.Hash128
	length []int32
	// views caches the member computations At has built, one atomic slot
	// per member. Enumerated and snapshot-loaded universes allocate it on
	// the first At; New fills every slot with the computations it was
	// given.
	views     []atomic.Pointer[trace.Computation]
	viewsOnce sync.Once
	// byHash indexes members by their 128-bit canonical hash and length.
	// No string keys are retained: membership and class lookups
	// discriminate on (hash, length), which separates distinct
	// computations up to the ~2^-128 collision assumption (see
	// trace.Hash128). New builds it eagerly (it doubles as the dedup
	// pass); sorted universes build it lazily under hashOnce on first
	// IndexOf, so enumeration and snapshot loads never pay for an index
	// the workload may not probe. That build checks the part of the
	// assumption the index leans on: two members of one length with
	// equal hashes leave hashErr, an ErrHashCollision, which IndexOf
	// raises.
	byHash   map[memberKey]int32
	hashOnce sync.Once
	hashErr  error
	all      trace.ProcSet
	// sorted records that members are in the prefix tree's level order
	// — by length, then the parent's member index, then hash among
	// siblings — and prefix closed: set by the enumeration engine and
	// snapshot loads, which hand the universe its prefix index.
	sorted bool
	// parts caches the [P]-partition table per P.Key(); see Partition.
	// Built on first use, safe under concurrent evaluators.
	parts sync.Map
	// prefix is the flattened prefix tree: each member's parent and
	// interned last event. Sorted universes are born with it; New
	// universes build it once on first use. Every partition build, the
	// transition graph, the snapshot writer and At read it.
	prefixOnce sync.Once
	prefix     *prefixIndex
	// trans caches the prefix-extension transition graph; see
	// Transitions. Built on first use, shared by concurrent evaluators.
	transOnce sync.Once
	trans     *Transitions
	// comp labels the components of the singleton relations' union and
	// ncomp counts them; see Components. Built on first use.
	compOnce sync.Once
	comp     []int32
	ncomp    int

	// proto is the protocol the universe was enumerated from; nil for
	// hand-built (New) universes and snapshot loads until BindProtocol.
	proto Protocol
	// maxEvents is the event bound the universe was enumerated under;
	// -1 when unknown (hand-built universes). Extend seeds its frontier
	// from the members of exactly this length.
	maxEvents int
	// states interns the per-process local-state vectors of the
	// enumeration, and memberSV records each member's interned vector —
	// retained so Extend can re-seed the engine's frontier without
	// replaying the protocol over every member. Nil for hand-built
	// universes; Extend reconstructs them by replay in that case.
	states   *stateTable
	memberSV []int32

	// sym is the process-symmetry group the universe was quotiented by
	// (WithSymmetry); nil otherwise. On a quotient — by sym, or by
	// commutation — orbitSize[i] is the number of full-universe members
	// member i stands for, weights groups the members by that number into
	// one bitset per distinct value, and fullSize is the numbers' sum —
	// the cardinality the full enumeration would have. All three are
	// installed together by setWeights; orbitSize is nil on full
	// universes.
	sym       *Symmetry
	orbitSize []int64
	weights   []WeightClass
	fullSize  int64
	// succOff and succ are a commutation quotient's successor lists: the
	// members succ[succOff[i]:succOff[i+1]] are the classes one event
	// extends member i's class to. Both are nil on other universes. See
	// commute.go.
	succOff, succ []int32

	// tr is the build trace attached by WithTrace, carried here so the
	// lazily built caches (Partition, Transitions) and snapshot encodes
	// report into the same per-build phase breakdown. Nil — the common
	// case — records nothing; the global obs metrics are fed either way.
	tr *obs.Trace
}

// New builds a universe from the given computations (duplicates by
// sequence identity are dropped) with D = all. The computations are the
// members' views: At returns them as given.
func New(comps []*trace.Computation, all trace.ProcSet) *Universe {
	u := &Universe{
		byHash:    make(map[memberKey]int32, len(comps)),
		all:       all,
		maxEvents: -1,
	}
	var kept []*trace.Computation
	for _, c := range comps {
		k := memberKey{c.Hash(), int32(c.Len())}
		if _, dup := u.byHash[k]; dup {
			continue
		}
		u.byHash[k] = int32(len(kept))
		kept = append(kept, c)
		u.hash = append(u.hash, c.Hash())
		u.length = append(u.length, int32(c.Len()))
	}
	u.views = make([]atomic.Pointer[trace.Computation], len(kept))
	for i, c := range kept {
		u.views[i].Store(c)
	}
	return u
}

// newSorted wraps columns that are already in level order, distinct and
// prefix closed — the enumeration engine's and the snapshot loader's
// output — with x their prefix index. It skips New's dedup pass; the
// hash index is built lazily on first IndexOf.
func newSorted(hash []trace.Hash128, length []int32, x *prefixIndex, all trace.ProcSet) *Universe {
	u := &Universe{
		hash:      hash,
		length:    length,
		all:       all,
		sorted:    true,
		maxEvents: -1,
	}
	u.prefixOnce.Do(func() { u.prefix = x })
	return u
}

// memberKey is a member's key in the hash index: computations of
// different lengths are distinct whatever their hashes.
type memberKey struct {
	hash trace.Hash128
	n    int32
}

func (u *Universe) buildHashIndex() {
	if u.byHash != nil {
		return
	}
	idx := make(map[memberKey]int32, len(u.hash))
	for i, h := range u.hash {
		k := memberKey{h, u.length[i]}
		if j, ok := idx[k]; ok {
			u.hashErr = fmt.Errorf("%w: %q vs %q", ErrHashCollision, u.At(int(j)).Key(), u.At(i).Key())
			return
		}
		idx[k] = int32(i)
	}
	u.byHash = idx
}

// Len reports the number of distinct computations.
func (u *Universe) Len() int { return len(u.hash) }

// At returns the i-th computation. Enumerated and snapshot-loaded
// universes build it from the columns on first use, extending the
// parent member's computation by the last event, and cache it, so
// At(i).Parent() is At(parent of i) and repeated calls return the same
// pointer. Concurrent callers are safe and agree on the result.
func (u *Universe) At(i int) *trace.Computation {
	u.viewsOnce.Do(func() {
		if u.views == nil {
			u.views = make([]atomic.Pointer[trace.Computation], len(u.hash))
		}
	})
	if c := u.views[i].Load(); c != nil {
		return c
	}
	// Only sorted universes reach here (New fills every slot), and they
	// are prefix closed: walk up to the nearest built ancestor, then
	// build down, publishing each node before its child is built on it.
	x := u.prefixIndex()
	var buf [16]int32
	path := buf[:0]
	c := trace.Empty()
	for j := int32(i); j >= 0; j = x.parent[j] {
		if v := u.views[j].Load(); v != nil {
			c = v
			break
		}
		path = append(path, j)
	}
	for k := len(path) - 1; k >= 0; k-- {
		j := path[k]
		if ev := x.event[j]; ev >= 0 {
			c = trace.Extend(c, x.events[ev])
		}
		if !u.views[j].CompareAndSwap(nil, c) {
			c = u.views[j].Load()
		}
	}
	return c
}

// All returns D, the set of all processes of the system.
func (u *Universe) All() trace.ProcSet { return u.all }

// IndexOf returns the index of the computation (by sequence identity), or
// -1 when it is not a member. It panics with an error wrapping
// ErrHashCollision, on every call, when two members of one length share
// a hash: the index cannot tell them apart.
func (u *Universe) IndexOf(c *trace.Computation) int {
	u.hashOnce.Do(u.buildHashIndex)
	if u.hashErr != nil {
		panic(u.hashErr)
	}
	if i, ok := u.byHash[memberKey{c.Hash(), int32(c.Len())}]; ok {
		return int(i)
	}
	return -1
}

// Initial returns the member index of the null computation, or -1 when
// it is not a member. Level-ordered universes (enumerated, extended or
// snapshot-loaded) sort by length first, so theirs is member 0 and no
// hash index is built; New universes look it up.
func (u *Universe) Initial() int {
	if !u.sorted {
		return u.IndexOf(trace.Empty())
	}
	if len(u.length) > 0 && u.length[0] == 0 {
		return 0
	}
	return -1
}

// Trace returns the trace attached by WithTrace, or nil. Evaluation
// over the universe records its phases there, next to the build's.
func (u *Universe) Trace() *obs.Trace { return u.tr }

// Contains reports membership by sequence identity.
func (u *Universe) Contains(c *trace.Computation) bool { return u.IndexOf(c) >= 0 }

// Class returns the indexes of every member y with x [P] y. The
// computation x itself need not be a member; if it is, its index is
// included (the relation is reflexive). The slice is a copy: callers may
// append to or mutate it without corrupting the partition table.
func (u *Universe) Class(x *trace.Computation, p trace.ProcSet) []int {
	return slices.Clone(u.ClassRef(x, p))
}

// ClassRef is Class without the defensive copy: the returned slice
// aliases the partition table and MUST be treated as read-only. It
// exists for hot read-only loops (knowledge evaluation, isomorphism
// closures) that only range over the class. Both Class and ClassRef are
// thin views over Partition and safe for concurrent use.
func (u *Universe) ClassRef(x *trace.Computation, p trace.ProcSet) []int {
	pt := u.Partition(p)
	if i := u.IndexOf(x); i >= 0 {
		return pt.MembersOf(pt.ClassOf(i))
	}
	if c, ok := pt.ClassOfKey(x.ProjectionKey(p)); ok {
		return pt.MembersOf(c)
	}
	return nil
}

// ClassScan is Class computed by pairwise comparison without the index;
// it exists for the projection-index ablation benchmark and for
// cross-checking the index in tests.
func (u *Universe) ClassScan(x *trace.Computation, p trace.ProcSet) []int {
	var out []int
	for i := range u.Len() {
		if x.IsomorphicTo(u.At(i), p) {
			out = append(out, i)
		}
	}
	return out
}

// Computations returns every member's computation, in member order.
func (u *Universe) Computations() []*trace.Computation {
	cp := make([]*trace.Computation, u.Len())
	for i := range cp {
		cp[i] = u.At(i)
	}
	return cp
}

// Protocol returns the protocol the universe was enumerated from, or
// nil for hand-built universes and snapshot loads that have not been
// re-bound with BindProtocol.
func (u *Universe) Protocol() Protocol { return u.proto }

// Symmetry returns the process-symmetry group the universe was
// quotiented by (see WithSymmetry), or nil for full universes.
func (u *Universe) Symmetry() *Symmetry { return u.sym }

// IsQuotient reports whether the universe is a quotient — by symmetry
// or by commutation: its members are representatives rather than the
// full computation set.
func (u *Universe) IsQuotient() bool { return u.orbitSize != nil }

// OrbitSize returns the number of full-universe computations member i
// stands for: the size of its renaming orbit on a symmetry quotient, its
// class's number of linearizations on a commutation quotient, and 1 for
// every member of a full universe.
func (u *Universe) OrbitSize(i int) int64 {
	if u.orbitSize == nil {
		return 1
	}
	return u.orbitSize[i]
}

// WeightClass is the set of a quotient's members that share one orbit
// size (OrbitSize). Members is a bitset over member indexes, 64 to a word (member i
// is bit i&63 of word i>>6), the layout of the knowledge layer's truth
// vectors.
type WeightClass struct {
	Size    int64
	Members []uint64
}

// WeightClasses returns a quotient's members grouped by orbit size, one
// class per distinct size, in increasing size; nil for full universes.
// A count over the full universe is then Σ Size·|v ∧ Members| for a
// truth vector v: word-parallel, one masked popcount per class, however
// many members the quotient has. Under the sizes' divisibility (see
// setOrbits) a symmetry quotient has at most as many classes as the
// group order has divisors — four under S3; a commutation quotient has
// one per distinct number of linearizations — 38 on the three-process
// reference system at six events. The classes are shared and read-only.
func (u *Universe) WeightClasses() []WeightClass { return u.weights }

// setOrbits makes u a quotient by sym with the given per-member orbit
// sizes (see setWeights). Every size must divide the group's order,
// since an orbit's size is |G| over its stabilizer's. Enumeration always
// meets this; a snapshot load rejects sizes that do not.
func (u *Universe) setOrbits(sym *Symmetry, orbs []int64) error {
	order := sym.Order()
	for i, o := range orbs {
		if o < 1 || order%o != 0 {
			return fmt.Errorf("member %d: orbit size %d does not divide the group order %d", i, o, order)
		}
	}
	u.sym = sym
	return u.setWeights(orbs)
}

// setWeights makes u a quotient whose member i stands for ws[i]
// full-universe members: it groups the members into weight classes and
// sums the full universe's cardinality, which must fit in an int64.
func (u *Universe) setWeights(ws []int64) error {
	words := (len(ws) + 63) / 64
	var classes []WeightClass
	class := make(map[int64]int)
	var full int64
	for i, o := range ws {
		if full > math.MaxInt64-o {
			return fmt.Errorf("member %d: orbit sizes overflow an int64", i)
		}
		full += o
		k, ok := class[o]
		if !ok {
			k = len(classes)
			class[o] = k
			classes = append(classes, WeightClass{Size: o, Members: make([]uint64, words)})
		}
		classes[k].Members[i>>6] |= 1 << (uint(i) & 63)
	}
	slices.SortFunc(classes, func(a, b WeightClass) int { return cmp.Compare(a.Size, b.Size) })
	u.orbitSize, u.weights, u.fullSize = ws, classes, full
	return nil
}

// FullSize returns the cardinality of the full universe: Len() for full
// universes, the sum of the members' orbit sizes for quotients.
func (u *Universe) FullSize() int64 {
	if u.orbitSize == nil {
		return int64(u.Len())
	}
	return u.fullSize
}

// MaxEvents returns the event bound the universe was enumerated under,
// or -1 when unknown (hand-built universes).
func (u *Universe) MaxEvents() int { return u.maxEvents }

// BindProtocol attaches the protocol a snapshot-loaded universe was
// originally enumerated from, enabling Extend. The caller is
// responsible for passing the same protocol (the snapshot stores the
// spec digest, not the protocol itself); binding a different one makes
// Extend produce garbage, exactly as lying to NewChecker would.
func (u *Universe) BindProtocol(p Protocol) { u.proto = p }

// Action is a spontaneous protocol step: a send or an internal event.
type Action struct {
	Kind trace.Kind   // trace.KindSend or trace.KindInternal
	To   trace.ProcID // destination, for sends
	Tag  string
}

// Protocol describes a system as one finite state machine per process.
// Local states are strings so they can key maps; encode richer state by
// formatting. Enumeration explores every interleaving of enabled steps
// and every admissible message delivery, so the resulting universe is the
// complete set of computations of the protocol up to the event bound.
type Protocol interface {
	// Procs lists the processes of the system (the paper's D).
	Procs() []trace.ProcID
	// Init gives the initial local state of p.
	Init(p trace.ProcID) string
	// Steps lists the spontaneous actions enabled for p in the state.
	Steps(p trace.ProcID, state string) []Action
	// AfterStep gives p's state after performing an enabled action.
	AfterStep(p trace.ProcID, state string, a Action) string
	// Deliver gives p's state after receiving the message, and whether
	// the delivery is admissible in the current state.
	Deliver(p trace.ProcID, state string, from trace.ProcID, tag string) (string, bool)
}
