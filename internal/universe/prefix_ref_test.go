package universe

import (
	"fmt"
	"slices"
)

// PrefixIndexMismatch differences u's prefix index — built by the engine
// or decoded by the snapshot loader — against the reference
// newPrefixIndex(u), which resolves every parent through IndexOf
// and interns every event afresh in member order. It describes the
// first difference, or returns "" when the two are identical: the same
// parents, the same event identifiers, the same event table in the same
// order and probe layout, and the same parent-first order.
func PrefixIndexMismatch(u *Universe) string {
	got, want := u.prefixIndex(), newPrefixIndex(u)
	switch {
	case !slices.Equal(got.parent, want.parent):
		return diffAt("parent", got.parent, want.parent)
	case !slices.Equal(got.event, want.event):
		return diffAt("event", got.event, want.event)
	case !slices.Equal(got.events, want.events):
		return fmt.Sprintf("event table: %d events %v, want %d %v", len(got.events), got.events, len(want.events), want.events)
	case got.probe.n != want.probe.n || !slices.Equal(got.probe.slots, want.probe.slots):
		return "event table probe layout differs"
	case !slices.Equal(got.order, want.order):
		return diffAt("order", got.order, want.order)
	case len(got.chain) != len(want.chain):
		return fmt.Sprintf("%d chains, want %d", len(got.chain), len(want.chain))
	}
	for j, ch := range want.chain {
		if !slices.Equal(got.chain[j], ch) {
			return diffAt(fmt.Sprintf("chain of member %d", j), got.chain[j], ch)
		}
	}
	for id := range got.events {
		if k, ok := got.lookup(&got.events[id]); !ok || k != int32(id) {
			return fmt.Sprintf("lookup of event %d = %d, %v", id, k, ok)
		}
	}
	return ""
}

func diffAt(what string, got, want []int32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return what + ": equal"
}
