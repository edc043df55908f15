package universe

import (
	"fmt"
	"slices"
)

// ColumnsMismatch describes the first column in which got and want
// differ — hash, length, parent, last event (identifiers and event
// table), state vector, orbit size — or returns "" when they are
// identical. State vectors are compared by value, since their interned
// identifiers depend on the route that built the universe.
func ColumnsMismatch(got, want *Universe) string {
	gx, wx := got.prefixIndex(), want.prefixIndex()
	switch {
	case got.Len() != want.Len():
		return fmt.Sprintf("%d members, want %d", got.Len(), want.Len())
	case !slices.Equal(got.hash, want.hash):
		return "hash column differs"
	case !slices.Equal(got.length, want.length):
		return diffAt("length", got.length, want.length)
	case !slices.Equal(gx.parent, wx.parent):
		return diffAt("parent", gx.parent, wx.parent)
	case !slices.Equal(gx.event, wx.event):
		return diffAt("event", gx.event, wx.event)
	case !slices.Equal(gx.events, wx.events):
		return "event table differs"
	case !slices.Equal(got.orbitSize, want.orbitSize):
		return "orbit sizes differ"
	}
	for i := range got.memberSV {
		if g, w := got.states.vec(got.memberSV[i]), want.states.vec(want.memberSV[i]); !slices.Equal(g, w) {
			return fmt.Sprintf("member %d: state vector %q, want %q", i, g, w)
		}
	}
	return ""
}
