package knowledge

import (
	"fmt"

	"hpl/internal/trace"
)

// This file provides checkers for the paper's knowledge facts (§4.1,
// facts 1–12; see README's paper → model check map) and local-predicate
// facts (§4.2, LP1–LP8 including Lemma 3 and the common-knowledge
// corollary). Each checker quantifies over the evaluator's universe and
// returns the first violation.

// CheckKnowledgeFacts verifies facts 1–12 of §4.1 for the given process
// sets and formulas. Fact 9 is checked in its sound reading (b ⇒ b'
// valid over the universe); fact 12 in the reading "P is sure of any
// constant".
func CheckKnowledgeFacts(e *Evaluator, p, q trace.ProcSet, b, b2 Formula) error {
	u := e.u
	kb := Knows(p, b)
	for i := 0; i < u.Len(); i++ {
		x := u.At(i)

		// Fact 1: P knows b at x ≡ ∀y: x[P]y: P knows b at y.
		all := true
		for _, j := range u.ClassRef(x, p) {
			if !e.HoldsAt(kb, j) {
				all = false
				break
			}
		}
		if e.HoldsAt(kb, i) != all {
			return fmt.Errorf("knowledge: fact 1 fails at member %d", i)
		}

		// Fact 2: x[P]y ⇒ (P knows b at x ≡ P knows b at y).
		for _, j := range u.ClassRef(x, p) {
			if e.HoldsAt(kb, i) != e.HoldsAt(kb, j) {
				return fmt.Errorf("knowledge: fact 2 fails between members %d and %d", i, j)
			}
		}

		// Fact 3: (P knows b) ⇒ (P∪Q knows b).
		if e.HoldsAt(kb, i) && !e.HoldsAt(Knows(p.Union(q), b), i) {
			return fmt.Errorf("knowledge: fact 3 fails at member %d", i)
		}

		// Fact 4: (P knows b) ⇒ b.
		if e.HoldsAt(kb, i) && !e.HoldsAt(b, i) {
			return fmt.Errorf("knowledge: fact 4 fails at member %d", i)
		}

		// Fact 5: (P knows b) ∨ ¬(P knows b) — totality.
		if e.HoldsAt(kb, i) == e.HoldsAt(Not(kb), i) {
			return fmt.Errorf("knowledge: fact 5 fails at member %d", i)
		}

		// Fact 6: (P knows b) ∧ (P knows b') ≡ P knows (b ∧ b').
		lhs := e.HoldsAt(kb, i) && e.HoldsAt(Knows(p, b2), i)
		rhs := e.HoldsAt(Knows(p, And(b, b2)), i)
		if lhs != rhs {
			return fmt.Errorf("knowledge: fact 6 fails at member %d", i)
		}

		// Fact 7: (P knows b) ∨ (P knows b') ⇒ P knows (b ∨ b').
		if (e.HoldsAt(kb, i) || e.HoldsAt(Knows(p, b2), i)) && !e.HoldsAt(Knows(p, Or(b, b2)), i) {
			return fmt.Errorf("knowledge: fact 7 fails at member %d", i)
		}

		// Fact 8: (P knows ¬b) ⇒ ¬(P knows b).
		if e.HoldsAt(Knows(p, Not(b)), i) && e.HoldsAt(kb, i) {
			return fmt.Errorf("knowledge: fact 8 fails at member %d", i)
		}

		// Fact 10: P knows P knows b ≡ P knows b.
		if e.HoldsAt(Knows(p, kb), i) != e.HoldsAt(kb, i) {
			return fmt.Errorf("knowledge: fact 10 fails at member %d", i)
		}

		// Fact 11 (Lemma 2): P knows ¬P knows b ≡ ¬P knows b.
		if e.HoldsAt(Knows(p, Not(kb)), i) != !e.HoldsAt(kb, i) {
			return fmt.Errorf("knowledge: fact 11 fails at member %d", i)
		}

		// Fact 12: P sure c for constants c.
		if !e.HoldsAt(Sure(p, True), i) || !e.HoldsAt(Sure(p, False), i) {
			return fmt.Errorf("knowledge: fact 12 fails at member %d", i)
		}
	}

	// Fact 9: (b ⇒ b') valid implies (P knows b ⇒ P knows b') valid.
	if e.Valid(Implies(b, b2)) && !e.Valid(Implies(kb, Knows(p, b2))) {
		return fmt.Errorf("knowledge: fact 9 fails")
	}
	return nil
}

// CheckLocalFacts verifies facts 1–8 of §4.2 for a formula b and process
// sets P, Q. Facts conditional on "b is local to P" are checked only
// when the evaluator establishes locality.
func CheckLocalFacts(e *Evaluator, p, q trace.ProcSet, b Formula) error {
	u := e.u
	localP := e.LocalTo(b, p)

	if localP {
		for i := 0; i < u.Len(); i++ {
			x := u.At(i)
			// LP1: x[P]y ⇒ (b at x ≡ b at y).
			for _, j := range u.ClassRef(x, p) {
				if e.HoldsAt(b, i) != e.HoldsAt(b, j) {
					return fmt.Errorf("knowledge: LP1 fails between members %d and %d", i, j)
				}
			}
			// LP2: b ≡ P knows b.
			if e.HoldsAt(b, i) != e.HoldsAt(Knows(p, b), i) {
				return fmt.Errorf("knowledge: LP2 fails at member %d", i)
			}
			// LP4: Q knows b ≡ Q knows P knows b.
			if e.HoldsAt(Knows(q, b), i) != e.HoldsAt(Knows(q, Knows(p, b)), i) {
				return fmt.Errorf("knowledge: LP4 fails at member %d", i)
			}
		}
	}

	// LP3: b local to P ≡ ¬b local to P.
	if localP != e.LocalTo(Not(b), p) {
		return fmt.Errorf("knowledge: LP3 fails")
	}

	// LP5: (P knows b) is local to P.
	if !e.LocalTo(Knows(p, b), p) {
		return fmt.Errorf("knowledge: LP5 fails")
	}

	// LP6 (Lemma 3): local to disjoint P and Q ⇒ constant.
	if p.Intersect(q).IsEmpty() && localP && e.LocalTo(b, q) && !e.IsConstant(b) {
		return fmt.Errorf("knowledge: LP6 (lemma 3) fails for P=%v Q=%v", p, q)
	}

	// LP7: constants are local to anything.
	if !e.LocalTo(True, p) || !e.LocalTo(False, p) {
		return fmt.Errorf("knowledge: LP7 fails")
	}
	if e.IsConstant(b) && !localP {
		return fmt.Errorf("knowledge: LP7 fails for constant b")
	}

	// LP8: (P sure b) is local to P.
	if !e.LocalTo(Sure(p, b), p) {
		return fmt.Errorf("knowledge: LP8 fails")
	}
	return nil
}

// CheckCommonKnowledgeConstant verifies the corollary to Lemma 3: in a
// system with more than one process, "b is common knowledge" is constant
// over the universe.
func CheckCommonKnowledgeConstant(e *Evaluator, b Formula) error {
	if e.u.All().Len() <= 1 {
		return nil
	}
	ck := Common(b)
	if !e.IsConstant(ck) {
		return fmt.Errorf("knowledge: common knowledge of %v is not constant", b)
	}
	// Common knowledge must be local to every single process.
	for _, p := range e.u.All().IDs() {
		if !e.LocalTo(ck, trace.Singleton(p)) {
			return fmt.Errorf("knowledge: common knowledge not local to %s", p)
		}
	}
	return nil
}

// CheckIdenticalKnowledgeConstant verifies the corollary: if P, Q are
// disjoint and P knows b ≡ Q knows b at every member, then P knows b is
// constant.
func CheckIdenticalKnowledgeConstant(e *Evaluator, p, q trace.ProcSet, b Formula) error {
	if !p.Intersect(q).IsEmpty() {
		return nil
	}
	kp, kq := Knows(p, b), Knows(q, b)
	for i := 0; i < e.u.Len(); i++ {
		if e.HoldsAt(kp, i) != e.HoldsAt(kq, i) {
			return nil // antecedent fails: nothing to check
		}
	}
	if !e.IsConstant(kp) {
		return fmt.Errorf("knowledge: identical-knowledge corollary fails for P=%v Q=%v", p, q)
	}
	return nil
}
