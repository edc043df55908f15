package knowledge

import (
	"fmt"

	"hpl/internal/universe"
)

// AsymmetryError reports a formula that cannot be evaluated over a
// symmetry quotient: some part of it distinguishes processes the
// quotient's group identifies. Each quotient member stands for a whole
// renaming orbit, so only G-invariant formulas have well-defined truth
// values there; everything else must be checked on the full universe
// (or the group shrunk until the formula becomes invariant).
type AsymmetryError struct {
	// Part renders the offending atom or subformula.
	Part string
	// Group is the quotient group's Key().
	Group string
	// Reason explains what the part would have to declare or satisfy.
	Reason string
}

func (e *AsymmetryError) Error() string {
	return fmt.Sprintf("knowledge: %s is not symmetric under %s: %s", e.Part, e.Group, e.Reason)
}

// InterleavingError reports a formula that cannot be evaluated over a
// commutation quotient (universe.WithCommutation): some part of it may
// tell apart two interleavings of one partial order, and a quotient
// member stands for all of them. Such formulas must be checked on the
// full universe.
type InterleavingError struct {
	// Part renders the offending subformula.
	Part string
	// Reason explains why the part may read the interleaving.
	Reason string
}

func (e *InterleavingError) Error() string {
	return fmt.Sprintf("knowledge: %s may read the interleaving of concurrent events: %s", e.Part, e.Reason)
}

const pastReason = "past operators read the prefixes of one linearization; evaluate on the full universe"

// ValidateSymmetric checks that f is invariant under s, the
// precondition for evaluating f over an s-quotient:
//
//   - every atom must declare invariance (Predicate.Symmetric) or a
//     support the group fixes (Predicate.FixedOn);
//   - every knowledge or sure operator's process set must be a union of
//     s-orbits (Symmetry.Invariant) — (P knows b) for a P that splits an
//     orbit is a different proposition at each orbit member;
//   - boolean, temporal and common-knowledge operators preserve
//     invariance and only recurse.
//
// A nil or trivial group validates everything. The first offending part
// is reported as an *AsymmetryError.
func ValidateSymmetric(f Formula, s *universe.Symmetry) error {
	return validateQuotient(f, s, false)
}

// ValidateCommuting checks that f is constant on [D]-classes, the
// precondition for evaluating f over a commutation quotient. The paper
// requires it of every predicate, and the operators preserve it:
//
//   - every atom is admitted: it is a history count (NewCount), and a
//     sum over the computation's events cannot see their order;
//   - K, Sure and C quantify over classes that are unions of [D]-classes,
//     since [D] ⊆ [P] for every P;
//   - EX, EU and AU and their duals read the one-event extensions, and
//     [D]-equivalent computations have the same extensions up to [D]:
//     whether an event is enabled depends only on its process's state
//     and the messages in flight, the bound only on length;
//   - past operators (EY, AY, Once, Hist) read the prefixes of one
//     linearization, so they are refused — except Once over an atom
//     that is monotone along prefixes, which is that atom (see
//     Predicate.Monotone).
//
// The first offending part is reported as an *InterleavingError.
func ValidateCommuting(f Formula) error {
	return validateQuotient(f, nil, true)
}

// validateQuotient checks that f is evaluable over a quotient by s (nil
// for none) and, when commuting, by commutation.
func validateQuotient(f Formula, s *universe.Symmetry, commuting bool) error {
	if s.Trivial() && !commuting {
		return nil
	}
	switch f := f.(type) {
	case ConstF:
		return nil
	case Atom:
		if !f.Pred.SymmetricUnder(s) {
			return &AsymmetryError{
				Part:   fmt.Sprintf("predicate %q", f.Pred.Name()),
				Group:  s.Key(),
				Reason: "declare it Symmetric(), give it a FixedOn() support the group fixes, or evaluate on the full universe",
			}
		}
		return nil
	case NotF:
		return validateQuotient(f.F, s, commuting)
	case AndF:
		return validateBoth(f.L, f.R, s, commuting)
	case OrF:
		return validateBoth(f.L, f.R, s, commuting)
	case ImpliesF:
		return validateBoth(f.L, f.R, s, commuting)
	case KnowsF:
		if !s.Invariant(f.P) {
			return &AsymmetryError{
				Part:   fmt.Sprintf("knowledge operator %s knows …", f.P),
				Group:  s.Key(),
				Reason: "the process set splits a symmetry class; use a union of whole classes or evaluate on the full universe",
			}
		}
		return validateQuotient(f.F, s, commuting)
	case SureF:
		if !s.Invariant(f.P) {
			return &AsymmetryError{
				Part:   fmt.Sprintf("sure operator %s sure …", f.P),
				Group:  s.Key(),
				Reason: "the process set splits a symmetry class; use a union of whole classes or evaluate on the full universe",
			}
		}
		return validateQuotient(f.F, s, commuting)
	case CommonF:
		// Common knowledge quantifies over all processes — a union of
		// orbits by construction — so only the body needs checking.
		return validateQuotient(f.F, s, commuting)
	case EXF:
		return validateQuotient(f.F, s, commuting)
	case AXF:
		return validateQuotient(f.F, s, commuting)
	case EFF:
		return validateQuotient(f.F, s, commuting)
	case AFF:
		return validateQuotient(f.F, s, commuting)
	case EGF:
		return validateQuotient(f.F, s, commuting)
	case AGF:
		return validateQuotient(f.F, s, commuting)
	case EUF:
		return validateBoth(f.L, f.R, s, commuting)
	case AUF:
		return validateBoth(f.L, f.R, s, commuting)
	case OnceF:
		if a, ok := f.F.(Atom); ok && a.Pred.Monotone() {
			return validateQuotient(a, s, commuting) // Once a interns as a
		}
		return validatePast(f, f.F, s, commuting)
	case EYF:
		return validatePast(f, f.F, s, commuting)
	case AYF:
		return validatePast(f, f.F, s, commuting)
	case HistF:
		return validatePast(f, f.F, s, commuting)
	default:
		return fmt.Errorf("knowledge: unknown formula type %T", f)
	}
}

// validateBoth validates the two operands of a binary operator.
func validateBoth(l, r Formula, s *universe.Symmetry, commuting bool) error {
	if err := validateQuotient(l, s, commuting); err != nil {
		return err
	}
	return validateQuotient(r, s, commuting)
}

// validatePast validates the past operator op over body: refused on a
// commutation quotient, and as invariant as its body under symmetry.
func validatePast(op, body Formula, s *universe.Symmetry, commuting bool) error {
	if commuting {
		return &InterleavingError{Part: fmt.Sprintf("past operator %s", op), Reason: pastReason}
	}
	return validateQuotient(body, s, commuting)
}
