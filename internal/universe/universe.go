// Package universe provides finite, exhaustively enumerated sets of system
// computations. Knowledge in the paper quantifies over *all* computations
// of a system ("(P knows b) at x ≡ ∀y: x [P] y : b at y"); on the small
// finite-state systems enumerated here the quantifier is exact rather than
// sampled, which is what makes the theorem checks in this repository
// meaningful model checks instead of statistical tests.
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
	"errors"
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
type Universe struct {
	comps []*trace.Computation
	// byHash indexes members by their 128-bit canonical hash. No string
	// keys are retained: membership and class lookups discriminate on
	// (hash, length), which separates distinct computations up to the
	// ~2^-128 collision assumption (see trace.Hash128). Enumeration
	// checks the part of it this index leans on: two members of one
	// length with equal hashes fail the run with ErrHashCollision, and
	// snapshot loads reject them as out of order. New builds it eagerly
	// (it doubles as the dedup pass); newSorted universes build it
	// lazily under hashOnce on first IndexOf, so enumeration and
	// snapshot loads never pay for an index the workload may not probe.
	byHash   map[trace.Hash128]int32
	hashOnce sync.Once
	all      trace.ProcSet
	// sorted records that members are in canonical (length, hash)
	// order — set by the enumeration engine and snapshot loads, and used
	// to skip the parent-first re-sort when building the prefix index.
	sorted bool
	// parts caches the [P]-partition table per P.Key(); see Partition.
	// Built on first use, safe under concurrent evaluators.
	parts sync.Map
	// prefix is the flattened prefix tree every partition build and the
	// transition graph read; see prefixIndex. The enumeration engine
	// hands it over with the universe; otherwise it is built once on
	// first use. parents holds each member's parent index on sorted
	// universes, whose constructors know them (the engine and the
	// snapshot loader), so that build only interns events and the
	// snapshot writer needs no index; nil for New universes, whose
	// parents the build resolves through the hash index.
	prefixOnce sync.Once
	prefix     *prefixIndex
	parents    []int32
	// trans caches the prefix-extension transition graph; see
	// Transitions. Built on first use, shared by concurrent evaluators.
	// The atomic pointer is published inside the once so concurrent
	// peekers (the snapshot writer) can observe a completed build
	// without racing one in progress.
	transOnce sync.Once
	trans     atomic.Pointer[Transitions]

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
	// (WithSymmetry); nil for full universes. Quotient members are the
	// orbit-canonical representatives, orbitSize[i] is the number of
	// full-universe members in member i's renaming orbit, and fullSize
	// is their sum — the cardinality the full enumeration would have.
	sym       *Symmetry
	orbitSize []int64
	fullSize  int64

	// tr is the build trace attached by WithTrace, carried here so the
	// lazily built caches (Partition, Transitions) and snapshot encodes
	// report into the same per-build phase breakdown. Nil — the common
	// case — records nothing; the global obs metrics are fed either way.
	tr *obs.Trace
}

// New builds a universe from the given computations (duplicates by
// sequence identity are dropped) with D = all.
func New(comps []*trace.Computation, all trace.ProcSet) *Universe {
	u := &Universe{
		byHash:    make(map[trace.Hash128]int32, len(comps)),
		all:       all,
		maxEvents: -1,
	}
	for _, c := range comps {
		if _, dup := u.byHash[c.Hash()]; dup {
			continue
		}
		u.byHash[c.Hash()] = int32(len(u.comps))
		u.comps = append(u.comps, c)
	}
	return u
}

// newSorted wraps members that are already in canonical (length, hash)
// order and known distinct — the enumeration engine's and the snapshot
// loader's output — with parents[j] the member index of member j's
// prefix (-1 for the null computation). It skips New's dedup pass; the
// hash index is built lazily on first IndexOf.
func newSorted(comps []*trace.Computation, all trace.ProcSet, parents []int32) *Universe {
	return &Universe{
		comps:     comps,
		all:       all,
		sorted:    true,
		parents:   parents,
		maxEvents: -1,
	}
}

func (u *Universe) buildHashIndex() {
	if u.byHash != nil {
		return
	}
	idx := make(map[trace.Hash128]int32, len(u.comps))
	for i, c := range u.comps {
		idx[c.Hash()] = int32(i)
	}
	u.byHash = idx
}

// Len reports the number of distinct computations.
func (u *Universe) Len() int { return len(u.comps) }

// At returns the i-th computation.
func (u *Universe) At(i int) *trace.Computation { return u.comps[i] }

// All returns D, the set of all processes of the system.
func (u *Universe) All() trace.ProcSet { return u.all }

// IndexOf returns the index of the computation (by sequence identity), or
// -1 when it is not a member.
func (u *Universe) IndexOf(c *trace.Computation) int {
	u.hashOnce.Do(u.buildHashIndex)
	if i, ok := u.byHash[c.Hash()]; ok && u.comps[i].Len() == c.Len() {
		return int(i)
	}
	return -1
}

// Initial returns the member index of the null computation, or -1 when
// it is not a member. Canonically ordered universes (enumerated,
// extended or snapshot-loaded) sort by length first, so theirs is
// member 0 and no hash index is built; New universes look it up.
func (u *Universe) Initial() int {
	if !u.sorted {
		return u.IndexOf(trace.Empty())
	}
	if len(u.comps) > 0 && u.comps[0].Len() == 0 {
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
	for i, c := range u.comps {
		if x.IsomorphicTo(c, p) {
			out = append(out, i)
		}
	}
	return out
}

// Computations returns a copy of the member slice.
func (u *Universe) Computations() []*trace.Computation {
	cp := make([]*trace.Computation, len(u.comps))
	copy(cp, u.comps)
	return cp
}

// Protocol returns the protocol the universe was enumerated from, or
// nil for hand-built universes and snapshot loads that have not been
// re-bound with BindProtocol.
func (u *Universe) Protocol() Protocol { return u.proto }

// Symmetry returns the process-symmetry group the universe was
// quotiented by (see WithSymmetry), or nil for full universes.
func (u *Universe) Symmetry() *Symmetry { return u.sym }

// IsQuotient reports whether the universe is a symmetry quotient: its
// members are orbit-canonical representatives rather than the full
// computation set.
func (u *Universe) IsQuotient() bool { return u.sym != nil }

// OrbitSize returns the number of full-universe computations in member
// i's renaming orbit; 1 for every member of a full universe.
func (u *Universe) OrbitSize(i int) int64 {
	if u.orbitSize == nil {
		return 1
	}
	return u.orbitSize[i]
}

// FullSize returns the cardinality of the full universe: Len() for full
// universes, the sum of the members' orbit sizes for quotients.
func (u *Universe) FullSize() int64 {
	if u.sym == nil {
		return int64(len(u.comps))
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
