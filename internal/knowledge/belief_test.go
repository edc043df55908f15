package knowledge

import (
	"math/rand"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// optimisticPlausibility: agents consider plausible only worlds where no
// message is lost in flight for long — modelled here as "no message in
// flight", i.e. agents assume prompt delivery.
func optimisticPlausibility() Predicate {
	return NoMessagesInFlight()
}

func TestBeliefMatchesKnowledgeWhenAllPlausible(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	formulas := []Formula{
		b,
		Knows(ps("q"), b),
		Knows(ps("p"), Knows(ps("q"), b)),
		Sure(ps("q"), b),
	}
	for _, f := range formulas {
		bf := Believes(Constant(true), f)
		for i := 0; i < u.Len(); i++ {
			if e.HoldsAt(bf, i) != e.HoldsAt(f, i) {
				t.Fatalf("belief with total plausibility differs from knowledge on %v at %d", f, i)
			}
		}
	}
}

func TestBeliefLosesVeridicality(t *testing.T) {
	// With "prompt delivery" plausibility, q believes ¬sent(p) is
	// impossible... concretely: at the computation where p has sent and
	// the message is in flight, q's plausible class contains only
	// members where either nothing was sent or delivery completed; q
	// believes "no message is in flight" — which is false at the actual
	// computation. Belief ⇒ truth fails.
	u := pingPong(t)
	rep := AnalyzeBelief(NewEvaluator(u), optimisticPlausibility(), ps("q"), NewAtom(NoMessagesInFlight()))
	if rep.VeridicalityHolds {
		t.Fatalf("veridicality must fail for optimistic belief")
	}
	if rep.VeridicalityCounterIndex < 0 {
		t.Fatalf("no counterexample recorded")
	}
	// The counterexample is a computation with a message in flight.
	cx := u.At(rep.VeridicalityCounterIndex)
	if len(cx.InFlight()) == 0 {
		t.Fatalf("counterexample has no message in flight: %v", cx)
	}
	// Introspection survives: plausibility filters uniformly per class.
	if !rep.IntrospectionHolds {
		t.Fatalf("introspection must survive the move to belief")
	}
}

func TestBeliefConsistencyFailsWithEmptyPlausibleClass(t *testing.T) {
	// A paranoid plausibility that rules out every world makes agents
	// believe everything — including contradictions.
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	rep := AnalyzeBelief(e, Constant(false), ps("q"), b)
	if rep.ConsistencyHolds {
		t.Fatalf("consistency must fail with an empty plausible set")
	}
	if !e.Valid(Believes(Constant(false), Knows(ps("q"), False))) {
		t.Fatalf("the mad believer must believe false")
	}
}

func TestBeliefConsistencyHoldsWithReflexivePlausibility(t *testing.T) {
	u := pingPong(t)
	b := NewAtom(SentTag("p", "m"))
	rep := AnalyzeBelief(NewEvaluator(u), Constant(true), ps("q"), b)
	if !rep.ConsistencyHolds || !rep.VeridicalityHolds || !rep.IntrospectionHolds {
		t.Fatalf("belief with total plausibility must behave like knowledge: %+v", rep)
	}
}

func TestBelievesRejectsCommonAndTemporal(t *testing.T) {
	b := NewAtom(SentTag("p", "m"))
	for _, f := range []Formula{
		Common(True),
		Knows(ps("q"), Common(b)),
		EF(b),
		Sure(ps("q"), Once(b)),
		And(b, AU(b, b)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Believes(%s) did not panic", f)
				}
			}()
			Believes(Constant(true), f)
		}()
	}
}

func TestBeliefSureOperator(t *testing.T) {
	u := pingPong(t)
	// "Sure" under belief: q is belief-sure of quiescence everywhere,
	// because all its plausible worlds are quiescent.
	f := Sure(ps("q"), NewAtom(NoMessagesInFlight()))
	if !NewEvaluator(u).Valid(Believes(optimisticPlausibility(), f)) {
		t.Fatalf("optimistic q must always be belief-sure of quiescence")
	}
}

// beliefFormula draws a random formula over atoms, the connectives, K
// and Sure, nested up to the depth.
func beliefFormula(r *rand.Rand, atoms []Formula, procs []trace.ProcID, depth int) Formula {
	if depth <= 0 || r.Intn(4) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	set := func() trace.ProcSet {
		if r.Intn(3) == 0 {
			return trace.NewProcSet(procs...)
		}
		return trace.Singleton(procs[r.Intn(len(procs))])
	}
	sub := func() Formula { return beliefFormula(r, atoms, procs, depth-1) }
	switch r.Intn(7) {
	case 0:
		return Not(sub())
	case 1:
		return And(sub(), sub())
	case 2:
		return Or(sub(), sub())
	case 3:
		return Implies(sub(), sub())
	case 4, 5:
		return Knows(set(), sub())
	default:
		return Sure(set(), sub())
	}
}

// TestBelievesMatchesDefinition is belief's differential: the rewrite,
// evaluated by the Evaluator, equals the paper's definition computed
// here member by member — (P believes ψ) holds at x iff ψ holds at every
// plausible y with x [P] y, the class found by pairwise comparison
// (ClassScan), not the partition table.
func TestBelievesMatchesDefinition(t *testing.T) {
	free, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	}), universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	atoms := []Formula{
		NewAtom(SentTag("p", "m")),
		NewAtom(ReceivedTag("q", "m")),
		NewAtom(SentTag("q", "m")),
		NewAtom(NoMessagesInFlight()),
	}
	procs := []trace.ProcID{"p", "q"}
	for _, u := range []*universe.Universe{pingPong(t), free} {
		classes := make(map[string][][]int)
		classOf := func(p trace.ProcSet, i int) []int {
			cs, ok := classes[p.Key()]
			if !ok {
				cs = make([][]int, u.Len())
				for j := range cs {
					cs[j] = u.ClassScan(u.At(j), p)
				}
				classes[p.Key()] = cs
			}
			return cs[i]
		}
		for _, pl := range []Predicate{optimisticPlausibility(), Constant(true), Constant(false)} {
			var believes func(f Formula, i int) bool
			believes = func(f Formula, i int) bool {
				switch f := f.(type) {
				case Atom:
					return f.Pred.Holds(u.At(i))
				case NotF:
					return !believes(f.F, i)
				case AndF:
					return believes(f.L, i) && believes(f.R, i)
				case OrF:
					return believes(f.L, i) || believes(f.R, i)
				case ImpliesF:
					return !believes(f.L, i) || believes(f.R, i)
				case KnowsF:
					for _, j := range classOf(f.P, i) {
						if pl.Holds(u.At(j)) && !believes(f.F, j) {
							return false
						}
					}
					return true
				case SureF:
					return believes(Knows(f.P, f.F), i) || believes(Knows(f.P, Not(f.F)), i)
				}
				t.Fatalf("unexpected formula %T", f)
				return false
			}
			e := NewEvaluator(u)
			r := rand.New(rand.NewSource(1985))
			filtered := false
			for range 60 {
				f := beliefFormula(r, atoms, procs, 3)
				bf := Believes(pl, f)
				for i := range u.Len() {
					got := e.HoldsAt(bf, i)
					if want := believes(f, i); got != want {
						t.Fatalf("%d members, plausible %s: %s at member %d: rewrite %v, definition %v",
							u.Len(), pl.Name(), f, i, got, want)
					}
					filtered = filtered || got != e.HoldsAt(f, i)
				}
			}
			// Only total plausibility may leave every formula's value as
			// knowledge gives it, or the filter is never exercised.
			if want := pl.Name() != Constant(true).Name(); filtered != want {
				t.Errorf("%d members, plausible %s: belief differs from knowledge somewhere = %v, want %v",
					u.Len(), pl.Name(), filtered, want)
			}
		}
	}
}
