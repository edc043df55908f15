// Package iso implements the paper's isomorphism relations on system
// computations and their algebra (§3):
//
//   - x [P] y: every process in P has the same projection in x and y;
//   - composite relations x [P1 … Pn] z, the relational composition
//     [P1] ∘ … ∘ [Pn], evaluated over a finite universe of computations;
//   - the isomorphism diagram (largest edge labels between computations);
//   - the Principle of Computation Extension and the event-semantics
//     Theorem 3;
//   - checkers for properties 1–10 of the relation algebra and for the
//     Fundamental Theorem of Process Chains (Theorem 1).
//
// Composite relations quantify over intermediate computations, so they
// are evaluated against a universe.Universe that exhaustively enumerates
// the system's computations up to a bound.
package iso

import (
	"fmt"

	"hpl/internal/causality"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Reachable returns the indexes of universe members z with
// x [sets[0] … sets[n-1]] z, computed as a breadth-first sweep of
// isomorphism classes. With no sets it returns {x} (if x is a member).
func Reachable(u *universe.Universe, x *trace.Computation, sets []trace.ProcSet) []int {
	if len(sets) == 0 {
		if i := u.IndexOf(x); i >= 0 {
			return []int{i}
		}
		return nil
	}
	frontier := make(map[int]struct{})
	for _, i := range u.ClassRef(x, sets[0]) {
		frontier[i] = struct{}{}
	}
	for _, p := range sets[1:] {
		next := make(map[int]struct{})
		// Classes are shared by all their members: expanding one member
		// of a class expands them all, so dedupe by class.
		pt := u.Partition(p)
		seenClass := make(map[int32]struct{})
		for i := range frontier {
			c := pt.ClassOf(i)
			if _, done := seenClass[c]; done {
				continue
			}
			seenClass[c] = struct{}{}
			for _, j := range pt.MembersOf(c) {
				next[j] = struct{}{}
			}
		}
		frontier = next
	}
	out := make([]int, 0, len(frontier))
	for i := range frontier {
		out = append(out, i)
	}
	return out
}

// Related reports x [sets…] z over the universe.
func Related(u *universe.Universe, x *trace.Computation, sets []trace.ProcSet, z *trace.Computation) bool {
	if len(sets) == 0 {
		return x.SameAs(z)
	}
	if len(sets) == 1 {
		return x.IsomorphicTo(z, sets[0])
	}
	zi := u.IndexOf(z)
	if zi < 0 {
		// z outside the universe can still be related through members:
		// split off the last step.
		last := sets[len(sets)-1]
		for _, i := range Reachable(u, x, sets[:len(sets)-1]) {
			if u.At(i).IsomorphicTo(z, last) {
				return true
			}
		}
		return false
	}
	for _, i := range Reachable(u, x, sets) {
		if i == zi {
			return true
		}
	}
	return false
}

// LargestLabel returns the largest process set P ⊆ procs with x [P] y —
// the edge label of the isomorphism diagram between x and y.
func LargestLabel(x, y *trace.Computation, procs trace.ProcSet) trace.ProcSet {
	var ids []trace.ProcID
	for _, p := range procs.IDs() {
		if x.IsomorphicTo(y, trace.Singleton(p)) {
			ids = append(ids, p)
		}
	}
	return trace.NewProcSet(ids...)
}

// --- Principle of Computation Extension (§3.4) ---

// ExtendWith implements part 1 of the principle: e is an internal or send
// event on some process, (x;e) is a computation, and x [P] y for a P
// containing e's process; then (y;e) is a computation, returned here.
func ExtendWith(y *trace.Computation, e trace.Event) (*trace.Computation, error) {
	if e.Kind == trace.KindReceive {
		return nil, fmt.Errorf("iso: ExtendWith: receive %s may not extend an arbitrary isomorphic computation", e.ID)
	}
	// Event identifiers are per-process positions: recompute for y.
	adjusted := e
	adjusted.ID = trace.NewEventID(e.Proc, len(y.Projection(trace.Singleton(e.Proc))))
	ext, err := y.Append(adjusted)
	if err != nil {
		return nil, fmt.Errorf("iso: ExtendWith: %w", err)
	}
	return ext, nil
}

// ExtendWithReceive implements the corollary: e is a receive on P whose
// corresponding send is on Q, and x [P∪Q] y with (x;e) a computation;
// then (y;e) is a computation. The caller vouches for x [P∪Q] y; this
// function validates the result, which fails exactly when the
// precondition was violated.
func ExtendWithReceive(y *trace.Computation, e trace.Event) (*trace.Computation, error) {
	if e.Kind != trace.KindReceive {
		return nil, fmt.Errorf("iso: ExtendWithReceive: event %s is not a receive", e.ID)
	}
	adjusted := e
	adjusted.ID = trace.NewEventID(e.Proc, len(y.Projection(trace.Singleton(e.Proc))))
	ext, err := y.Append(adjusted)
	if err != nil {
		return nil, fmt.Errorf("iso: ExtendWithReceive: %w", err)
	}
	return ext, nil
}

// Shrink implements part 2 of the principle: e is an internal or receive
// event on its process and (x;e) [P] y for P containing that process;
// then (y − e) is a computation.
func Shrink(y *trace.Computation, e trace.Event) (*trace.Computation, error) {
	if e.Kind == trace.KindSend {
		return nil, fmt.Errorf("iso: Shrink: removing send %s could orphan a receive", e.ID)
	}
	// In y the deleted occurrence is the last event on e's process.
	proj := y.Projection(trace.Singleton(e.Proc))
	if len(proj) == 0 {
		return nil, fmt.Errorf("iso: Shrink: %s has no events in y", e.Proc)
	}
	last := proj[len(proj)-1]
	if last.Kind != e.Kind || last.Msg != e.Msg || last.Tag != e.Tag {
		return nil, fmt.Errorf("iso: Shrink: last event on %s is %v, not %v", e.Proc, last, e)
	}
	shrunk, err := y.DeleteLastOn(last.ID)
	if err != nil {
		return nil, fmt.Errorf("iso: Shrink: %w", err)
	}
	return shrunk, nil
}

// --- Theorem 1: Fundamental Theorem of Process Chains ---

// Theorem1Outcome records, for one (x, z, sets) instance, which side of
// the dichotomy held.
type Theorem1Outcome struct {
	Iso   bool // x [sets…] z over the universe
	Chain bool // process chain <sets…> in (x, z)
}

// Holds reports whether the theorem's disjunction held.
func (o Theorem1Outcome) Holds() bool { return o.Iso || o.Chain }

// CheckTheorem1 evaluates both sides of Theorem 1 for x ≤ z.
func CheckTheorem1(u *universe.Universe, x, z *trace.Computation, sets []trace.ProcSet) (Theorem1Outcome, error) {
	if !x.IsPrefixOf(z) {
		return Theorem1Outcome{}, fmt.Errorf("iso: CheckTheorem1: %w", trace.ErrNotPrefix)
	}
	chain, err := causality.HasChainIn(x, z, sets)
	if err != nil {
		return Theorem1Outcome{}, err
	}
	return Theorem1Outcome{
		Iso:   Related(u, x, sets, z),
		Chain: chain,
	}, nil
}

// --- Theorem 3: event semantics in terms of isomorphism ---

// ClassPP returns the indexes of members z with x [P P̄] z.
func ClassPP(u *universe.Universe, x *trace.Computation, p trace.ProcSet) []int {
	pbar := p.Complement(u.All())
	return Reachable(u, x, []trace.ProcSet{p, pbar})
}

// CheckTheorem3 verifies, for a member x and extension (x;e) with e on P:
//
//	receive:  [P P̄]-class of (x;e) ⊆ class of x   (reception shrinks)
//	send:     class of x ⊆ class of (x;e)          (sending grows)
//	internal: classes are equal
//
// It returns an error naming the first violation.
func CheckTheorem3(u *universe.Universe, x, xe *trace.Computation, e trace.Event, p trace.ProcSet) error {
	before := toSet(ClassPP(u, x, p))
	after := toSet(ClassPP(u, xe, p))
	switch e.Kind {
	case trace.KindReceive:
		if !subset(after, before) {
			return fmt.Errorf("iso: theorem 3 (receive): class grew")
		}
	case trace.KindSend:
		if !subset(before, after) {
			return fmt.Errorf("iso: theorem 3 (send): class shrank")
		}
	case trace.KindInternal:
		if !subset(after, before) || !subset(before, after) {
			return fmt.Errorf("iso: theorem 3 (internal): class changed")
		}
	default:
		return fmt.Errorf("iso: theorem 3: unknown kind %v", e.Kind)
	}
	return nil
}

func toSet(xs []int) map[int]struct{} {
	s := make(map[int]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

func subset(a, b map[int]struct{}) bool {
	for x := range a {
		if _, ok := b[x]; !ok {
			return false
		}
	}
	return true
}
