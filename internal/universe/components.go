package universe

import "hpl/internal/trace"

// Components labels the members by the components of the union of the
// singleton relations [p], p ∈ D: two members share a component exactly
// when a chain of members links them, each step inside one [p]-class.
// This is the structure behind the paper's Lemma 3: F is common
// knowledge at x exactly when F holds throughout x's component, and on
// a prefix-closed universe of two or more processes there is only one
// component (x is [p]-equivalent to its one-event prefix for any p that
// did not perform the last event).
//
// label[i] is member i's component, numbered 0, 1, … in order of each
// component's first member; n is the number of components. On a
// symmetry quotient the classes include their twisted listings (see
// NewPartition), so components follow the relations through renaming
// as well. The labels are built from the singleton partition tables on
// first use and cached; they are not part of a snapshot. The slice
// aliases the cache and MUST be treated as read-only.
func (u *Universe) Components() (label []int32, n int) {
	u.compOnce.Do(func() {
		var parts []*Partition
		for _, p := range u.all.IDs() {
			parts = append(parts, u.Partition(trace.Singleton(p)))
		}
		u.comp, u.ncomp = ComponentsOf(u.Len(), parts)
	})
	return u.comp, u.ncomp
}

// ComponentsOf labels members 0 … n-1 by the components of the union
// of the relations the partitions tabulate, numbered as Components
// numbers them. It runs union-find over the members of every class.
func ComponentsOf(n int, parts []*Partition) (label []int32, ncomp int) {
	root := make([]int32, n)
	for i := range root {
		root[i] = int32(i)
	}
	find := func(i int32) int32 {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	for _, pt := range parts {
		for c := range int32(pt.NumClasses()) {
			ms := pt.MembersOf(c)
			a := find(int32(ms[0]))
			for _, j := range ms[1:] {
				b := find(int32(j))
				if b < a {
					a, b = b, a
				}
				root[b] = a // every root is its component's least member
			}
		}
	}
	label = make([]int32, n)
	k := int32(0)
	for i := range root {
		if r := find(int32(i)); r < int32(i) {
			label[i] = label[r]
		} else {
			label[i] = k
			k++
		}
	}
	return label, int(k)
}
