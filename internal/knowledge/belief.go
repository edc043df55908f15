package knowledge

import (
	"fmt"

	"hpl/internal/trace"
)

// This file implements the paper's §6 generalization 3: "we can define
// belief in terms of isomorphism"; the paper notes its results do not
// carry over. Belief quantifies over the *plausible* members of an
// isomorphism class rather than all of them:
//
//	(P believes b) at x  ≡  ∀y: x [P] y ∧ plausible(y) : b at y,
//
// which is (P knows (plausible ⇒ b)). Belief is therefore a formula
// rewrite evaluated by the ordinary Evaluator, not an interpreter of
// its own.
//
// The failure mode is precise and machine-checked here: when the actual
// computation is itself implausible, belief loses veridicality (the
// analogue of fact 4, "knowledge implies truth", fails), while the
// introspective facts survive because plausibility filters uniformly
// within each class.

// Believes reads every knowledge operator in f as belief under the
// plausibility predicate: each (P knows ψ) becomes
// (P knows (plausible ⇒ ψ')) and each (P sure ψ) becomes
// (P knows (plausible ⇒ ψ')) ∨ (P knows (plausible ⇒ ¬ψ')), where ψ' is
// ψ rewritten the same way. Atoms and connectives are unchanged. It
// panics on common knowledge and temporal operators, for which the
// paper defines no belief reading.
func Believes(plausible Predicate, f Formula) Formula {
	pl := NewAtom(plausible)
	var rw func(Formula) Formula
	rw = func(f Formula) Formula {
		switch f := f.(type) {
		case ConstF, Atom:
			return f
		case NotF:
			return Not(rw(f.F))
		case AndF:
			return And(rw(f.L), rw(f.R))
		case OrF:
			return Or(rw(f.L), rw(f.R))
		case ImpliesF:
			return Implies(rw(f.L), rw(f.R))
		case KnowsF:
			return Knows(f.P, Implies(pl, rw(f.F)))
		case SureF:
			g := rw(f.F)
			return Or(Knows(f.P, Implies(pl, g)), Knows(f.P, Implies(pl, Not(g))))
		default:
			panic(fmt.Sprintf("knowledge: belief does not support %T", f))
		}
	}
	return rw(f)
}

// BeliefReport summarizes which knowledge facts survive the move to
// belief over one universe.
type BeliefReport struct {
	// VeridicalityHolds: (P believes b) ⇒ b everywhere — generally FALSE
	// for belief; a counterexample index is recorded when it fails.
	VeridicalityHolds        bool
	VeridicalityCounterIndex int
	// IntrospectionHolds: B B b ≡ B b and B ¬B b ≡ ¬B b everywhere.
	IntrospectionHolds bool
	// ConsistencyHolds: ¬(B b ∧ B ¬b) everywhere; fails exactly where a
	// class contains no plausible world (the agent believes everything).
	ConsistencyHolds        bool
	ConsistencyCounterIndex int
}

// AnalyzeBelief checks the S5 facts against belief under the
// plausibility predicate for the process set P and formula b, which is
// itself read as belief (see Believes).
func AnalyzeBelief(e *Evaluator, plausible Predicate, p trace.ProcSet, b Formula) BeliefReport {
	bel := func(f Formula) Formula { return Believes(plausible, f) }
	bb := bel(Knows(p, b))
	iff := func(l, r Formula) Formula { return And(Implies(l, r), Implies(r, l)) }
	_, veridical := e.Summary(Implies(bb, bel(b)))
	_, consistent := e.Summary(Not(And(bb, bel(Knows(p, Not(b))))))
	return BeliefReport{
		VeridicalityHolds:        veridical < 0,
		VeridicalityCounterIndex: veridical,
		IntrospectionHolds: e.Valid(iff(bel(Knows(p, Knows(p, b))), bb)) &&
			e.Valid(iff(bel(Knows(p, Not(Knows(p, b)))), Not(bb))),
		ConsistencyHolds:        consistent < 0,
		ConsistencyCounterIndex: consistent,
	}
}
