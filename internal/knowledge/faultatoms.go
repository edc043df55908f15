package knowledge

import (
	"fmt"

	"hpl/internal/faults"
	"hpl/internal/trace"
)

// Fault-observation atoms: predicates over the reserved fault tags that
// faults.Wrap injects into computations, so formulas can condition on
// the adversary's behaviour ("if q crashed, q never comes to know b").

// Crashed holds when p has crash-stopped (performed the fault-injected
// crash event).
func Crashed(p trace.ProcID) Predicate {
	return ever(fmt.Sprintf("crashed(%s)", p), func(e trace.Event) bool {
		return e.Kind == trace.KindInternal && e.Proc == p && e.Tag == faults.TagCrash
	}).FixedOn(p)
}

// AnyCrashed holds when some process has crash-stopped; the
// renaming-invariant closure of Crashed.
func AnyCrashed() Predicate {
	return ever("anyCrashed", func(e trace.Event) bool {
		return e.Kind == trace.KindInternal && e.Tag == faults.TagCrash
	}).Symmetric()
}

// Dropped holds when the channel dropped some message tagged tag
// (a fault-injected drop event on any sender).
func Dropped(tag string) Predicate {
	want := faults.DropTag(tag)
	return ever("dropped("+tag+")", func(e trace.Event) bool {
		return e.Kind == trace.KindInternal && e.Tag == want
	}).Symmetric()
}

// Duplicated holds when the channel duplicated some message tagged tag
// (a fault-injected retransmission send by any process).
func Duplicated(tag string) Predicate {
	want := faults.DupTag(tag)
	return ever("duplicated("+tag+")", func(e trace.Event) bool {
		return e.Kind == trace.KindSend && e.Tag == want
	}).Symmetric()
}
