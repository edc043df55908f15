package universe

// BuiltViews counts the member computations At has built and cached.
func BuiltViews(u *Universe) int {
	n := 0
	for i := range u.views {
		if u.views[i].Load() != nil {
			n++
		}
	}
	return n
}
