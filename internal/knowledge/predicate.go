package knowledge

import (
	"fmt"
	"strconv"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Predicate is a total predicate on system computations. The paper
// requires x [D] y ⇒ (b at x = b at y): a predicate's value may depend
// only on per-process projections, never on the interleaving of
// independent events. CheckWellFormed verifies this over a universe.
//
// A predicate is a history count (NewCount): a weight per event and a
// test on the weights' sum over the computation's events. A sum cannot
// see the order of its terms, so every predicate meets the requirement
// by construction. In the paper a computation is its prefix plus one
// event, so a count at (x;e) is the count at x plus the weight of e, and
// the evaluator computes a count's truth vector in one fold down the
// universe's prefix index (see universe.HistorySums), reading only the
// universe's columns. Holds derives the value at a single computation
// from the same weight and test.
//
// Names must uniquely identify semantics: the evaluator memoizes atoms
// by name, so a name must spell out every parameter the value depends
// on, or two different predicates share one truth vector.
//
// Symmetry metadata: evaluating over a symmetry quotient (see
// universe.WithSymmetry) requires every predicate to be invariant under
// the quotient's group — a quotient member stands for its whole renaming
// orbit, so a predicate that distinguishes orbit members has no
// well-defined value there. A predicate declares how it behaves under
// renaming with Symmetric (invariant under every renaming) or FixedOn
// (depends only on the named processes, hence invariant under any
// renaming fixing them); predicates declaring neither are rejected on
// quotients with an AsymmetryError. The stock library is pre-annotated.
type Predicate struct {
	name   string
	weight func(trace.Event) int32
	test   func(sum int32) bool
	// monotone records that the count can only turn true along a
	// computation's prefixes (see Predicate.Monotone).
	monotone bool
	// symKind records the declared renaming behaviour; support lists the
	// processes a symFixed predicate depends on.
	symKind uint8
	support []trace.ProcID
}

// NewCount builds the history-count predicate test(Σ weight), which
// the evaluator folds down the prefix index for every member at once.
func NewCount(name string, weight func(trace.Event) int32, test func(sum int32) bool) Predicate {
	return Predicate{name: name, weight: weight, test: test}
}

// ever is the history count "some event matches". Its weights are never
// negative and its test is sum > 0, so it is monotone.
func ever(name string, match func(trace.Event) bool) Predicate {
	p := NewCount(name, func(e trace.Event) int32 { return indicator(match(e)) }, positive)
	p.monotone = true
	return p
}

func indicator(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func positive(sum int32) bool { return sum > 0 }

const (
	symUnknown uint8 = iota // no declaration: rejected on quotients
	symAll                  // invariant under every process renaming
	symFixed                // invariant under renamings fixing support
)

// Monotone reports whether the predicate, once true at a computation,
// is true at every extension of it — so it holds exactly where it held
// at some prefix, and Once b is b. Every "some event matches" atom of
// the stock library (sent, received, internal, their any-process
// closures and the fault atoms) is.
func (p Predicate) Monotone() bool { return p.monotone }

// Name returns the predicate's unique name.
func (p Predicate) Name() string { return p.name }

// Holds evaluates the predicate at the computation: it tests the
// weights' sum over c's events.
func (p Predicate) Holds(c *trace.Computation) bool {
	var sum int32
	for e := range c.Backward() {
		sum += p.weight(e)
	}
	return p.test(sum)
}

// Symmetric declares the predicate invariant under every process
// renaming — σ·x satisfies it exactly when x does, for any renaming σ —
// making it evaluable on any symmetry quotient. The declaration is the
// caller's assertion; the quotient-vs-full differential tests are the
// safety net for the stock library.
func (p Predicate) Symmetric() Predicate {
	p.symKind = symAll
	p.support = nil
	return p
}

// FixedOn declares that the predicate's value depends only on the
// events of the named processes, so it is invariant under every
// renaming that fixes them pointwise. It is evaluable on a quotient
// exactly when the quotient's group fixes all of them.
func (p Predicate) FixedOn(procs ...trace.ProcID) Predicate {
	p.symKind = symFixed
	p.support = append([]trace.ProcID(nil), procs...)
	return p
}

// SymmetricUnder reports whether the predicate's declared renaming
// behaviour guarantees invariance under every element of s. Undeclared
// predicates are never symmetric under a nontrivial group.
func (p Predicate) SymmetricUnder(s *universe.Symmetry) bool {
	if s.Trivial() {
		return true
	}
	switch p.symKind {
	case symAll:
		return true
	case symFixed:
		return s.FixesAll(p.support...)
	}
	return false
}

// CheckWellFormed verifies the model requirement that the predicate is
// invariant under [D]-isomorphism across the universe's members. A
// history count meets it by construction, so the check exercises the
// universe's [D]-classes (Universe.ClassRef) as much as the predicate.
func CheckWellFormed(u *universe.Universe, b Predicate) error {
	for i := 0; i < u.Len(); i++ {
		x := u.At(i)
		for _, j := range u.ClassRef(x, u.All()) {
			if b.Holds(x) != b.Holds(u.At(j)) {
				return fmt.Errorf("knowledge: predicate %q distinguishes [D]-isomorphic members %d and %d", b.Name(), i, j)
			}
		}
	}
	return nil
}

// --- Standard predicate library ---

// SentTag holds when p has sent at least one message tagged tag.
func SentTag(p trace.ProcID, tag string) Predicate {
	return ever(fmt.Sprintf("sent(%s,%s)", p, tag), func(e trace.Event) bool {
		return e.Kind == trace.KindSend && e.Proc == p && e.Tag == tag
	}).FixedOn(p)
}

// ReceivedTag holds when p has received at least one message tagged tag.
func ReceivedTag(p trace.ProcID, tag string) Predicate {
	return ever(fmt.Sprintf("received(%s,%s)", p, tag), func(e trace.Event) bool {
		return e.Kind == trace.KindReceive && e.Proc == p && e.Tag == tag
	}).FixedOn(p)
}

// DidInternal holds when p has performed an internal event tagged tag.
func DidInternal(p trace.ProcID, tag string) Predicate {
	return ever(fmt.Sprintf("internal(%s,%s)", p, tag), func(e trace.Event) bool {
		return e.Kind == trace.KindInternal && e.Proc == p && e.Tag == tag
	}).FixedOn(p)
}

// EventCountAtLeast holds when the members of P have performed at least n
// events in total.
func EventCountAtLeast(p trace.ProcSet, n int) Predicate {
	return NewCount(fmt.Sprintf("count(%s)>=%s", p.Key(), strconv.Itoa(n)),
		func(e trace.Event) int32 { return indicator(p.Contains(e.Proc)) },
		func(sum int32) bool { return int(sum) >= n },
	).FixedOn(p.IDs()...)
}

// TokenAt holds when p currently holds the token in a token-passing
// system: p is the initial holder and has sent the token as many times as
// it received it, or p has received it one more time than it sent it.
// Token transfers are identified by the given tag. The count is p's
// receipts minus its sends of the token.
func TokenAt(p trace.ProcID, initialHolder trace.ProcID, tag string) Predicate {
	want := indicator(p != initialHolder)
	return NewCount(fmt.Sprintf("token@%s(%s,%s)", p, initialHolder, tag),
		func(e trace.Event) int32 {
			if e.Proc != p || e.Tag != tag {
				return 0
			}
			return transfer(e.Kind)
		},
		func(sum int32) bool { return sum == want },
	).FixedOn(p)
}

// transfer weighs a receive +1 and a send -1.
func transfer(k trace.Kind) int32 {
	switch k {
	case trace.KindReceive:
		return 1
	case trace.KindSend:
		return -1
	}
	return 0
}

// NoMessagesInFlight holds when every sent message has been received.
// Note: this predicate is a function of per-process projections (send and
// receive multisets), so it is [D]-invariant. A valid computation
// receives each message at most once and only after its send, so no
// message is in flight exactly when sends and receives are equally many.
func NoMessagesInFlight() Predicate {
	return NewCount("quiescent",
		func(e trace.Event) int32 { return transfer(e.Kind) },
		func(sum int32) bool { return sum == 0 },
	).Symmetric()
}

// Constant returns the constant predicate with the given value.
func Constant(v bool) Predicate {
	return NewCount("const("+strconv.FormatBool(v)+")",
		func(trace.Event) int32 { return 0 },
		func(int32) bool { return v },
	).Symmetric()
}

// AnySentTag holds when some process has sent a message tagged tag. It
// is the existential closure of SentTag over the processes and, unlike
// SentTag, is invariant under every renaming — the natural way to phrase
// send-observations on a symmetry quotient.
func AnySentTag(tag string) Predicate {
	return ever("anySent("+tag+")", func(e trace.Event) bool {
		return e.Kind == trace.KindSend && e.Tag == tag
	}).Symmetric()
}

// AnyReceivedTag holds when some process has received a message tagged
// tag; the renaming-invariant closure of ReceivedTag.
func AnyReceivedTag(tag string) Predicate {
	return ever("anyReceived("+tag+")", func(e trace.Event) bool {
		return e.Kind == trace.KindReceive && e.Tag == tag
	}).Symmetric()
}

// AnyDidInternal holds when some process has performed an internal
// event tagged tag; the renaming-invariant closure of DidInternal.
func AnyDidInternal(tag string) Predicate {
	return ever("anyInternal("+tag+")", func(e trace.Event) bool {
		return e.Kind == trace.KindInternal && e.Tag == tag
	}).Symmetric()
}
