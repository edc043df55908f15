package trace

import "testing"

// TestHashEqualsAcrossConstructionPaths pins the property everything
// hangs on: the 128-bit canonical hash is a pure function of the event
// sequence, identical no matter how the computation was constructed —
// builder replay, whole-sequence validation, incremental Append, or
// the unchecked Extend a universe builds its member views with.
func TestHashEqualsAcrossConstructionPaths(t *testing.T) {
	viaBuilder := NewBuilder().
		Send("p", "q", "m").
		Receive("q", "p").
		Internal("q", "think").
		MustBuild()

	viaNew := MustNew(viaBuilder.Events())

	viaAppend := Empty()
	for _, e := range viaBuilder.Events() {
		d, err := viaAppend.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		viaAppend = d
	}

	viaExtend := Empty()
	for _, e := range viaBuilder.Events() {
		viaExtend = Extend(viaExtend, e)
	}

	want := viaBuilder.Hash()
	for name, c := range map[string]*Computation{
		"NewComputation": viaNew,
		"Append":         viaAppend,
		"Extend":         viaExtend,
	} {
		if c.Hash() != want {
			t.Errorf("%s hash = %+v, want %+v", name, c.Hash(), want)
		}
		if !c.SameAs(viaBuilder) {
			t.Errorf("%s not SameAs builder result", name)
		}
	}
}

// TestHashPrefixConsistent: the hash of Prefix(n) equals the hash of a
// freshly built n-event computation — prefixes are shared ancestors,
// not recomputed values, so this pins the incremental extension.
func TestHashPrefixConsistent(t *testing.T) {
	c := NewBuilder().
		Send("p", "q", "a").
		Send("p", "q", "b").
		Receive("q", "p").
		Receive("q", "p").
		MustBuild()
	evs := c.Events()
	for n := 0; n <= c.Len(); n++ {
		fresh := MustNew(evs[:n])
		if got := c.Prefix(n).Hash(); got != fresh.Hash() {
			t.Fatalf("Prefix(%d) hash differs from fresh build", n)
		}
	}
	if Empty().Hash() != c.Prefix(0).Hash() {
		t.Fatalf("Prefix(0) hash differs from Empty")
	}
}

// TestHashDistinguishes is a sanity check (not a collision proof): the
// hash separates interleavings, tags, kinds, peers, and lengths.
func TestHashDistinguishes(t *testing.T) {
	base := NewBuilder().Internal("p", "a").Internal("q", "b").MustBuild()
	variants := []*Computation{
		NewBuilder().Internal("q", "b").Internal("p", "a").MustBuild(), // permuted
		NewBuilder().Internal("p", "a").Internal("q", "c").MustBuild(), // tag differs
		NewBuilder().Internal("p", "a").MustBuild(),                    // prefix
		NewBuilder().Internal("p", "a").Internal("q", "b").Internal("p", "x").MustBuild(),
		NewBuilder().Send("p", "q", "a").MustBuild(), // kind differs
	}
	seen := map[Hash128]string{base.Hash(): base.Key()}
	for _, v := range variants {
		if prev, dup := seen[v.Hash()]; dup {
			t.Fatalf("hash collision between %q and %q", prev, v.Key())
		}
		seen[v.Hash()] = v.Key()
	}
}

// TestHashFieldBoundaries: field contents must not alias across field
// boundaries (the classic "ab"+"c" vs "a"+"bc" concatenation trap).
func TestHashFieldBoundaries(t *testing.T) {
	x := MustNew([]Event{{ID: NewEventID("pq", 0), Proc: "pq", Kind: KindInternal, Tag: "t"}})
	y := MustNew([]Event{{ID: NewEventID("p", 0), Proc: "p", Kind: KindInternal, Tag: "t"}})
	if x.Hash() == y.Hash() {
		t.Fatalf("proc boundary aliased")
	}
	a := MustNew([]Event{{ID: NewEventID("p", 0), Proc: "p", Kind: KindInternal, Tag: "ab"}})
	b := MustNew([]Event{{ID: NewEventID("p", 0), Proc: "p", Kind: KindInternal, Tag: "a"}})
	if a.Hash() == b.Hash() {
		t.Fatalf("tag boundary aliased")
	}
}
