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
// Names must uniquely identify semantics: the evaluator memoizes by name.
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
	name string
	fn   func(*trace.Computation) bool
	// symKind records the declared renaming behaviour; support lists the
	// processes a symFixed predicate depends on.
	symKind uint8
	support []trace.ProcID
}

const (
	symUnknown uint8 = iota // no declaration: rejected on quotients
	symAll                  // invariant under every process renaming
	symFixed                // invariant under renamings fixing support
)

// NewPredicate builds a predicate from a name and an evaluation function.
func NewPredicate(name string, fn func(*trace.Computation) bool) Predicate {
	return Predicate{name: name, fn: fn}
}

// Name returns the predicate's unique name.
func (p Predicate) Name() string { return p.name }

// Holds evaluates the predicate at the computation.
func (p Predicate) Holds(c *trace.Computation) bool { return p.fn(c) }

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
// invariant under [D]-isomorphism across the universe's members.
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
	return NewPredicate(fmt.Sprintf("sent(%s,%s)", p, tag), func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindSend && e.Proc == p && e.Tag == tag {
				return true
			}
		}
		return false
	}).FixedOn(p)
}

// ReceivedTag holds when p has received at least one message tagged tag.
func ReceivedTag(p trace.ProcID, tag string) Predicate {
	return NewPredicate(fmt.Sprintf("received(%s,%s)", p, tag), func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindReceive && e.Proc == p && e.Tag == tag {
				return true
			}
		}
		return false
	}).FixedOn(p)
}

// DidInternal holds when p has performed an internal event tagged tag.
func DidInternal(p trace.ProcID, tag string) Predicate {
	return NewPredicate(fmt.Sprintf("internal(%s,%s)", p, tag), func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindInternal && e.Proc == p && e.Tag == tag {
				return true
			}
		}
		return false
	}).FixedOn(p)
}

// EventCountAtLeast holds when the members of P have performed at least n
// events in total.
func EventCountAtLeast(p trace.ProcSet, n int) Predicate {
	return NewPredicate(fmt.Sprintf("count(%s)>=%s", p.Key(), strconv.Itoa(n)), func(c *trace.Computation) bool {
		return len(c.Projection(p)) >= n
	}).FixedOn(p.IDs()...)
}

// TokenAt holds when p currently holds the token in a token-passing
// system: p is the initial holder and has sent the token as many times as
// it received it, or p has received it one more time than it sent it.
// Token transfers are identified by the given tag.
func TokenAt(p trace.ProcID, initialHolder trace.ProcID, tag string) Predicate {
	return NewPredicate(fmt.Sprintf("token@%s", p), func(c *trace.Computation) bool {
		recv, sent := 0, 0
		for e := range c.Backward() {
			if e.Proc != p || e.Tag != tag {
				continue
			}
			switch e.Kind {
			case trace.KindReceive:
				recv++
			case trace.KindSend:
				sent++
			}
		}
		if p == initialHolder {
			return recv == sent
		}
		return recv == sent+1
	}).FixedOn(p)
}

// NoMessagesInFlight holds when every sent message has been received.
// Note: this predicate is a function of per-process projections (send and
// receive multisets), so it is [D]-invariant. A valid computation
// receives each message at most once and only after its send, so no
// message is in flight exactly when sends and receives are equally many.
func NoMessagesInFlight() Predicate {
	return NewPredicate("quiescent", func(c *trace.Computation) bool {
		inFlight := 0
		for e := range c.Backward() {
			switch e.Kind {
			case trace.KindSend:
				inFlight++
			case trace.KindReceive:
				inFlight--
			}
		}
		return inFlight == 0
	}).Symmetric()
}

// Constant returns the constant predicate with the given value.
func Constant(v bool) Predicate {
	return NewPredicate("const("+strconv.FormatBool(v)+")", func(*trace.Computation) bool { return v }).Symmetric()
}

// AnySentTag holds when some process has sent a message tagged tag. It
// is the existential closure of SentTag over the processes and, unlike
// SentTag, is invariant under every renaming — the natural way to phrase
// send-observations on a symmetry quotient.
func AnySentTag(tag string) Predicate {
	return NewPredicate("anySent("+tag+")", func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindSend && e.Tag == tag {
				return true
			}
		}
		return false
	}).Symmetric()
}

// AnyReceivedTag holds when some process has received a message tagged
// tag; the renaming-invariant closure of ReceivedTag.
func AnyReceivedTag(tag string) Predicate {
	return NewPredicate("anyReceived("+tag+")", func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindReceive && e.Tag == tag {
				return true
			}
		}
		return false
	}).Symmetric()
}

// AnyDidInternal holds when some process has performed an internal
// event tagged tag; the renaming-invariant closure of DidInternal.
func AnyDidInternal(tag string) Predicate {
	return NewPredicate("anyInternal("+tag+")", func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if e.Kind == trace.KindInternal && e.Tag == tag {
				return true
			}
		}
		return false
	}).Symmetric()
}
