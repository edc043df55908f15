package universe_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// allSubsets returns every subset of D, the empty set included.
func allSubsets(d trace.ProcSet) []trace.ProcSet {
	ids := d.IDs()
	var out []trace.ProcSet
	for mask := 0; mask < 1<<len(ids); mask++ {
		var sub []trace.ProcID
		for k, id := range ids {
			if mask&(1<<k) != 0 {
				sub = append(sub, id)
			}
		}
		out = append(out, trace.NewProcSet(sub...))
	}
	return out
}

// requireReferencePartition fails unless pt is identical to the
// projection-key reference: the same class of every member, the same
// ascending member list of every class, and the same class for every
// projection key the reference lists a class under.
func requireReferencePartition(t *testing.T, label string, u *universe.Universe, pt *universe.Partition) {
	t.Helper()
	ref := universe.ReferencePartition(u, pt.Set())
	if pt.Len() != u.Len() || pt.NumClasses() != len(ref.Members) {
		t.Fatalf("%s %v: %d members in %d classes, want %d in %d", label, pt.Set(), pt.Len(), pt.NumClasses(), u.Len(), len(ref.Members))
	}
	for i := 0; i < u.Len(); i++ {
		if pt.ClassOf(i) != ref.ClassID[i] {
			t.Fatalf("%s %v: member %d in class %d, want %d", label, pt.Set(), i, pt.ClassOf(i), ref.ClassID[i])
		}
	}
	for c, want := range ref.Members {
		got := pt.MembersOf(int32(c))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s %v: class %d = %v, want %v", label, pt.Set(), c, got, want)
		}
	}
	for k, want := range ref.ByKey {
		if got, ok := pt.ClassOfKey(k); !ok || got != want {
			t.Fatalf("%s %v: ClassOfKey(%q) = %d,%v, want %d", label, pt.Set(), k, got, ok, want)
		}
	}
}

// requireReferencePartitions checks a fresh table for every process set
// of u against the reference, building the tables concurrently so the
// shared prefix index is exercised by racing builds (run under -race).
func requireReferencePartitions(t *testing.T, label string, u *universe.Universe) {
	t.Helper()
	sets := allSubsets(u.All())
	pts := make([]*universe.Partition, len(sets))
	var wg sync.WaitGroup
	for k, p := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts[k] = universe.NewPartition(u, p)
		}()
	}
	wg.Wait()
	for _, pt := range pts {
		requireReferencePartition(t, label, u, pt)
	}
}

// TestPartitionMatchesReference differences the prefix-index builder
// against the projection-key reference on every protocol and on
// randomized free systems, full and quotient, at parallelism 1, 2 and 8.
func TestPartitionMatchesReference(t *testing.T) {
	cases := allProtocols(t)
	rng := rand.New(rand.NewSource(12))
	allProcs := []trace.ProcID{"p", "q", "r"}
	for trial := 0; trial < 4; trial++ {
		cfg := universe.FreeConfig{
			Procs:       allProcs[:2+rng.Intn(2)],
			MaxSends:    1 + rng.Intn(2),
			MaxInternal: rng.Intn(2),
		}
		if rng.Intn(2) == 1 {
			cfg.SendTags = []string{"m", "n"}
		}
		cases = append(cases, enumerable{fmt.Sprintf("free%d", trial), universe.NewFree(cfg), 3 + rng.Intn(2)})
	}
	for _, e := range cases {
		t.Run(e.name, func(t *testing.T) {
			var syms []*universe.Symmetry
			if s := universe.InferSymmetry(e.p); !s.Trivial() {
				syms = append(syms, s)
			}
			if ids := e.p.Procs(); len(ids) == 3 && len(syms) > 0 {
				// A partial group, so some singletons are fixed and some
				// are carried onto each other.
				s, err := universe.NewSymmetry(ids[1:])
				if err != nil {
					t.Fatal(err)
				}
				syms = append(syms, s)
			}
			for _, workers := range []int{1, 2, 8} {
				u, err := universe.EnumerateWith(e.p, universe.WithMaxEvents(e.maxEvents), universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireReferencePartitions(t, fmt.Sprintf("workers=%d", workers), u)
				for _, s := range syms {
					q, err := universe.EnumerateWith(e.p, universe.WithMaxEvents(e.maxEvents),
						universe.WithParallelism(workers), universe.WithSymmetry(s))
					if err != nil {
						t.Fatal(err)
					}
					requireReferencePartitions(t, fmt.Sprintf("workers=%d quotient %s", workers, s.Key()), q)
				}
			}
		})
	}
}

// TestPartitionSnapshotLoadMatchesReference checks tables built over a
// snapshot load, whose prefix index takes its parents from the decoder.
func TestPartitionSnapshotLoadMatchesReference(t *testing.T) {
	procs := []trace.ProcID{"p", "q", "r"}
	free := universe.NewFree(universe.FreeConfig{Procs: procs, MaxSends: 1})
	sym, err := universe.FullSymmetry(procs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]universe.Option{
		{universe.WithMaxEvents(4)},
		{universe.WithMaxEvents(4), universe.WithSymmetry(sym)},
	} {
		u := universe.MustEnumerateWith(free, opts...)
		var buf bytes.Buffer
		if err := universe.WriteSnapshot(&buf, u, "d"); err != nil {
			t.Fatal(err)
		}
		v, _, err := universe.ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireReferencePartitions(t, fmt.Sprintf("snapshot quotient=%v", v.IsQuotient()), v)
		requireIdenticalUniverses(t, "snapshot", v, u)
	}
}

// TestPartitionHandBuiltUniverse covers universe.New input the engine
// never produces: members out of level order, duplicates, and
// members whose prefixes are not members.
func TestPartitionHandBuiltUniverse(t *testing.T) {
	b := trace.NewBuilder()
	b.Internal("q", "a")
	qa := b.MustSnapshot()
	m, b := b.SendMsg("p", "q", "m")
	pm := b.MustSnapshot()
	b.ReceiveMsg(m)
	full := b.MustSnapshot()
	b.Internal("p", "z").Internal("q", "z")
	long := b.MustBuild()
	other := trace.NewBuilder().Internal("p", "z").Internal("q", "a").MustBuild()
	sendOnly := trace.NewBuilder().Send("p", "q", "m").MustBuild()
	// Unsorted, with a duplicate; long's and other's prefixes are absent.
	comps := []*trace.Computation{long, full, other, qa, trace.Empty(), pm, sendOnly, full}
	u := universe.New(comps, trace.NewProcSet("p", "q"))
	if u.Len() != 7 {
		t.Fatalf("Len = %d, want 7 distinct members", u.Len())
	}
	requireReferencePartitions(t, "hand-built", u)
	for _, p := range allSubsets(u.All()) {
		pt := universe.NewPartition(u, p)
		for i := 0; i < u.Len(); i++ {
			if got, want := pt.MembersOf(pt.ClassOf(i)), u.ClassScan(u.At(i), p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: class of member %d = %v, scan %v", p, i, got, want)
			}
		}
	}
	// The graph's roots are the members whose prefix is missing, and its
	// order still puts every parent first.
	tr := u.Transitions()
	seen := make([]bool, u.Len())
	for _, j := range tr.Order() {
		if par := tr.Parent(int(j)); par >= 0 && !seen[par] {
			t.Fatalf("Order visits member %d before its parent %d", j, par)
		}
		seen[j] = true
	}
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		want := -1
		if c.Len() > 0 {
			want = u.IndexOf(c.Prefix(c.Len() - 1))
		}
		if tr.Parent(i) != want {
			t.Fatalf("Parent(%d) = %d, want %d", i, tr.Parent(i), want)
		}
	}
}

// TestPartitionClassOfKey pins ClassOfKey on the classes whose key is
// not their first member's own projection — a quotient's twisted
// classes — and on computations outside the universe.
func TestPartitionClassOfKey(t *testing.T) {
	procs := []trace.ProcID{"p", "q", "r"}
	sym, err := universe.FullSymmetry(procs...)
	if err != nil {
		t.Fatal(err)
	}
	q := universe.MustEnumerateWith(universe.NewFree(universe.FreeConfig{Procs: procs, MaxSends: 1}),
		universe.WithMaxEvents(4), universe.WithSymmetry(sym))
	p := trace.Singleton("q")
	pt := q.Partition(p)
	twisted := 0
	for c := int32(0); c < int32(pt.NumClasses()); c++ {
		first := q.At(pt.MembersOf(c)[0])
		if own, ok := pt.ClassOfKey(first.ProjectionKey(p)); ok && own == c {
			continue
		}
		twisted++
		// Some renaming of the first member must project to the class.
		found := false
		for _, sigma := range groupElements(sym) {
			if got, ok := pt.ClassOfKey(renameComputation(t, first, sigma).ProjectionKey(p)); ok && got == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("twisted class %d: no renaming of its first member projects to it", c)
		}
	}
	if twisted == 0 {
		t.Fatal("no twisted class: the test proves nothing")
	}

	u := universe.MustEnumerateWith(universe.NewFree(universe.FreeConfig{Procs: procs, MaxSends: 1}), universe.WithMaxEvents(3))
	// Four events, past the bound; each set's projection is a member's.
	outside := trace.NewBuilder().Send("p", "q", "m").Receive("q", "p").Send("r", "p", "m").Receive("p", "r").MustBuild()
	if u.Contains(outside) {
		t.Fatal("outside computation is a member")
	}
	for _, set := range []trace.ProcSet{trace.Singleton("p"), trace.NewProcSet("q", "r")} {
		upt := u.Partition(set)
		c, ok := upt.ClassOfKey(outside.ProjectionKey(set))
		want := u.ClassScan(outside, set)
		if len(want) == 0 {
			t.Fatalf("%v: no member shares the outside computation's projection", set)
		}
		if !ok || fmt.Sprint(upt.MembersOf(c)) != fmt.Sprint(want) {
			t.Fatalf("%v: ClassOfKey(outside) = %d,%v, scan %v", set, c, ok, want)
		}
	}
	alien := trace.NewBuilder().Internal("q", "alien").MustBuild()
	if c, ok := u.Partition(p).ClassOfKey(alien.ProjectionKey(p)); ok {
		t.Fatalf("alien projection matched class %d", c)
	}
}
