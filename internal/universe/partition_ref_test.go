package universe

import (
	"hpl/internal/trace"
)

// ReferenceTable is a [P]-partition as the projection-key builders
// produce it: the executable specification NewPartition is differenced
// against.
type ReferenceTable struct {
	ClassID []int32
	Members [][]int
	// ByKey maps every projection key a class is listed under to it.
	ByKey map[string]int32
}

// ReferencePartition builds the [P]-partition the way the string-keyed
// builders did before the prefix index: one projection-key string per
// member, classes numbered by first occurrence of their key, and on a
// symmetry quotient one extra "twisted" listing per distinct key of a
// renamed member σ·y.
func ReferencePartition(u *Universe, p trace.ProcSet) ReferenceTable {
	if u.sym != nil {
		return referenceQuotientPartition(u, p)
	}
	n := u.Len()
	ref := ReferenceTable{ClassID: make([]int32, n), ByKey: make(map[string]int32)}
	for i := 0; i < n; i++ {
		k := u.At(i).ProjectionKey(p)
		c, ok := ref.ByKey[k]
		if !ok {
			c = int32(len(ref.Members))
			ref.ByKey[k] = c
			ref.Members = append(ref.Members, nil)
		}
		ref.ClassID[i] = c
		ref.Members[c] = append(ref.Members[c], i)
	}
	return ref
}

func referenceQuotientPartition(u *Universe, p trace.ProcSet) ReferenceTable {
	n := u.Len()
	ref := ReferenceTable{ClassID: make([]int32, n), ByKey: make(map[string]int32)}
	elems := u.sym.elements()
	for i := 0; i < n; i++ {
		c := u.At(i)
		keys := []string{c.ProjectionKey(p)}
		for _, sigma := range elems {
			rc := trace.Empty()
			for e := 0; e < c.Len(); e++ {
				rc = trace.Extend(rc, renameEvent(c.At(e), sigma))
			}
			k := rc.ProjectionKey(p)
			dup := false
			for _, have := range keys {
				dup = dup || have == k
			}
			if !dup {
				keys = append(keys, k)
			}
		}
		for j, k := range keys {
			cl, ok := ref.ByKey[k]
			if !ok {
				cl = int32(len(ref.Members))
				ref.ByKey[k] = cl
				ref.Members = append(ref.Members, nil)
			}
			if j == 0 {
				ref.ClassID[i] = cl
			}
			ref.Members[cl] = append(ref.Members[cl], i)
		}
	}
	return ref
}
