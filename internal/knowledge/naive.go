package knowledge

import (
	"fmt"

	"hpl/internal/temporal"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// This file is the reference semantics: each operator evaluated at one
// member by the paper's definition, with no memo and sharing nothing
// with the vectorized Evaluator (no interning, no truth vectors, no
// partition tables, no component labels). The differential tests pin
// the Evaluator against it; the ablation benchmarks use it as the
// unvectorized baseline.

// EvalNaive evaluates f at member i by direct recursion: knowledge
// scans the [P]-class of member i, temporal operators walk the
// transition graph (temporal.Naive*), and common knowledge runs the
// greatest fixpoint (NaiveCommon) over the whole universe.
func EvalNaive(u *universe.Universe, f Formula, i int) bool {
	switch f := f.(type) {
	case ConstF:
		return f.Value
	case Atom:
		return f.Pred.Holds(u.At(i))
	case NotF:
		return !EvalNaive(u, f.F, i)
	case AndF:
		return EvalNaive(u, f.L, i) && EvalNaive(u, f.R, i)
	case OrF:
		return EvalNaive(u, f.L, i) || EvalNaive(u, f.R, i)
	case ImpliesF:
		return !EvalNaive(u, f.L, i) || EvalNaive(u, f.R, i)
	case KnowsF:
		for _, j := range u.ClassRef(u.At(i), f.P) {
			if !EvalNaive(u, f.F, j) {
				return false
			}
		}
		return true
	case SureF:
		return EvalNaive(u, Knows(f.P, f.F), i) || EvalNaive(u, Knows(f.P, Not(f.F)), i)
	case CommonF:
		return NaiveCommon(u, naivePred(u, f.F))[i]
	case EXF:
		return temporal.NaiveEX(u.Transitions(), naivePred(u, f.F), i)
	case AXF:
		return temporal.NaiveAX(u.Transitions(), naivePred(u, f.F), i)
	case EFF:
		return temporal.NaiveEF(u.Transitions(), naivePred(u, f.F), i)
	case AFF:
		return temporal.NaiveAF(u.Transitions(), naivePred(u, f.F), i)
	case EGF:
		return temporal.NaiveEG(u.Transitions(), naivePred(u, f.F), i)
	case AGF:
		return temporal.NaiveAG(u.Transitions(), naivePred(u, f.F), i)
	case EUF:
		return temporal.NaiveEU(u.Transitions(), naivePred(u, f.L), naivePred(u, f.R), i)
	case AUF:
		return temporal.NaiveAU(u.Transitions(), naivePred(u, f.L), naivePred(u, f.R), i)
	case EYF:
		return temporal.NaiveEY(u.Transitions(), naivePred(u, f.F), i)
	case AYF:
		return temporal.NaiveAY(u.Transitions(), naivePred(u, f.F), i)
	case OnceF:
		return temporal.NaiveOnce(u.Transitions(), naivePred(u, f.F), i)
	case HistF:
		return temporal.NaiveHist(u.Transitions(), naivePred(u, f.F), i)
	default:
		panic(fmt.Sprintf("knowledge: unknown formula type %T", f))
	}
}

func naivePred(u *universe.Universe, f Formula) func(int) bool {
	return func(j int) bool { return EvalNaive(u, f, j) }
}

// NaiveCommon returns common knowledge of the per-member predicate inF
// at every member, as the greatest fixpoint
// S_{k+1} = {x ∈ S_k : F at x ∧ ∀p ∈ D: [p]-class of x ⊆ S_k}. inF is
// called once per member. The fixpoint is inherently global, so a
// caller comparing C F at many members computes it once and indexes
// the result.
func NaiveCommon(u *universe.Universe, inF func(int) bool) []bool {
	n := u.Len()
	in := make([]bool, n)
	for j := range in {
		in[j] = inF(j)
	}
	// The singleton partitions are fetched once: the loop below
	// revisits every class on every iteration.
	var parts []*universe.Partition
	for _, p := range u.All().IDs() {
		parts = append(parts, u.Partition(trace.Singleton(p)))
	}
	for changed := true; changed; {
		changed = false
		for j := range n {
			if !in[j] {
				continue
			}
		scan:
			for _, pt := range parts {
				for _, k := range pt.MembersOf(pt.ClassOf(j)) {
					if !in[k] {
						in[j] = false
						changed = true
						break scan
					}
				}
			}
		}
	}
	return in
}
