package universe_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// TestViewsMatchReference differences the member views At builds from
// a universe's columns against the replay-based reference enumerator,
// on free p,q,r, the commit protocol and a crash-faulty free system,
// each full and quotiented by its symmetry, by every route a universe
// is built: enumeration at parallelism 1, 2 and 8, extension by one
// event, and a snapshot load. On every route, first 8 goroutines call
// At concurrently on the fresh universe and must get the same pointers;
// then every view must have its reference member's events, hash and
// length (for quotients, the reference member it names, in the order
// the sequential quotient gives), and At(i).Parent() must be the view
// of i's parent member.
func TestViewsMatchReference(t *testing.T) {
	p1p2, err := universe.NewSymmetry([]trace.ProcID{"p1", "p2"})
	if err != nil {
		t.Fatal(err)
	}
	free := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	crashy := faults.Wrap(universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1}),
		faults.Model{CrashAll: true})
	cases := []struct {
		name string
		p    universe.Protocol
		sym  *universe.Symmetry
		max  int
	}{
		{"free", free, universe.InferSymmetry(free), 5},
		{"commit", commit.MustNew("c", "p1", "p2"), p1p2, 8},
		{"crash", crashy, universe.InferSymmetry(crashy), 4},
	}
	for _, c := range cases {
		ref := enumerateReference(c.p, c.max)
		for _, sym := range []*universe.Symmetry{nil, c.sym} {
			if sym != nil && sym.Trivial() {
				t.Fatalf("%s: no symmetry to quotient by", c.name)
			}
			opts := []universe.Option{universe.WithMaxEvents(c.max), universe.WithSymmetry(sym)}
			build := func(extra ...universe.Option) *universe.Universe {
				u, err := universe.EnumerateWith(c.p, append(slices.Clone(opts), extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			routes := map[string]func() *universe.Universe{
				"extend": func() *universe.Universe {
					base := build(universe.WithMaxEvents(c.max - 1))
					u, err := universe.Extend(base, universe.WithMaxEvents(c.max))
					if err != nil {
						t.Fatal(err)
					}
					return u
				},
				"snapshot": func() *universe.Universe {
					var buf bytes.Buffer
					if err := universe.WriteSnapshot(&buf, build(), "digest"); err != nil {
						t.Fatal(err)
					}
					u, _, err := universe.ReadSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					return u
				},
			}
			for _, w := range []int{1, 2, 8} {
				routes[fmt.Sprintf("workers=%d", w)] = func() *universe.Universe { return build(universe.WithParallelism(w)) }
			}
			order := build()
			for route, mk := range routes {
				label := fmt.Sprintf("%s/quotient=%v/%s", c.name, sym != nil, route)
				u := mk()
				requireConcurrentViews(t, label, u)
				requireParentViews(t, label, u)
				if u.Len() != order.Len() {
					t.Fatalf("%s: %d members, want %d", label, u.Len(), order.Len())
				}
				for i := 0; i < u.Len(); i++ {
					want := ref.At(i)
					if sym != nil {
						if want = order.At(i); ref.IndexOf(want) < 0 {
							t.Fatalf("%s: member %d %q is not a computation of the system", label, i, want.Key())
						}
						want = ref.At(ref.IndexOf(want))
					}
					requireSameComputation(t, fmt.Sprintf("%s: member %d", label, i), u.At(i), want)
				}
			}
		}
	}
}

// TestViewsOfHandBuiltUniverse checks New's side of the contract: a
// hand-built universe, here out of level order and not prefix
// closed, returns the very computations it was given, and its parent
// column names a member exactly when the computation's prefix is one.
func TestViewsOfHandBuiltUniverse(t *testing.T) {
	full := universe.MustEnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs: []trace.ProcID{"p", "q"}, MaxSends: 1,
	}), universe.WithMaxEvents(4))
	var comps []*trace.Computation
	for i := full.Len() - 1; i >= 0; i -= 3 {
		comps = append(comps, full.At(i))
	}
	comps = append(comps, full.At(full.Len()-1)) // a duplicate, dropped
	u := universe.New(comps, full.All())
	if u.Len() != len(comps)-1 {
		t.Fatalf("Len = %d, want %d", u.Len(), len(comps)-1)
	}
	requireConcurrentViews(t, "hand-built", u)
	for i := 0; i < u.Len(); i++ {
		if u.At(i) != comps[i] {
			t.Fatalf("At(%d) is not the computation New was given", i)
		}
	}
	requireParentViews(t, "hand-built", u)
}

// requireConcurrentViews has 8 goroutines call At on every member, in
// different orders, and fails unless all get the same pointers.
func requireConcurrentViews(t *testing.T, label string, u *universe.Universe) {
	t.Helper()
	const goroutines = 8
	got := make([][]*trace.Computation, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views := make([]*trace.Computation, u.Len())
			for k := range views {
				i := k
				if g%2 == 1 {
					i = u.Len() - 1 - k
				}
				views[i] = u.At(i)
			}
			got[g] = views
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i, c := range got[g] {
			if c != got[0][i] {
				t.Fatalf("%s: goroutines 0 and %d got different views of member %d", label, g, i)
			}
		}
	}
}

// requireParentViews fails unless every member's view has as its
// Parent the view of the member the parent column names, and a member
// the column gives no parent has none among the members.
func requireParentViews(t *testing.T, label string, u *universe.Universe) {
	t.Helper()
	tr := u.Transitions()
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		if par := tr.Parent(i); par >= 0 {
			if c.Parent() != u.At(par) {
				t.Fatalf("%s: At(%d).Parent() is not At(%d)", label, i, par)
			}
		} else if c.Len() > 0 && u.Contains(c.Parent()) {
			t.Fatalf("%s: member %d has no parent member, but its prefix is member %d", label, i, u.IndexOf(c.Parent()))
		}
	}
}

// requireSameComputation fails unless got and want have the same
// events, hash and length.
func requireSameComputation(t *testing.T, label string, got, want *trace.Computation) {
	t.Helper()
	if !slices.Equal(got.Events(), want.Events()) || got.Hash() != want.Hash() || got.Len() != want.Len() {
		t.Fatalf("%s = %q (hash %v, %d events), want %q (hash %v, %d events)",
			label, got.Key(), got.Hash(), got.Len(), want.Key(), want.Hash(), want.Len())
	}
}

// TestChecksMakeNoViews pins that model checks over the commit and
// tracker protocols read only the universe's columns: K and C formulas
// over commit's Voted, Decided and GotCommit, and the locality checks
// of the tracked bit (local to its owner, not to the tracker), build no
// member's computation. Views appear only once a failure witness is
// rendered with At.
func TestChecksMakeNoViews(t *testing.T) {
	cmt := commit.MustNew("c", "p1", "p2")
	u := universe.MustEnumerateWith(cmt, universe.WithMaxEvents(cmt.SuggestedMaxEvents()))
	e := knowledge.NewEvaluator(u)
	decided := knowledge.NewAtom(cmt.Decided())
	coord := trace.Singleton(cmt.Coordinator)
	for _, p := range cmt.Participants {
		voted := knowledge.NewAtom(cmt.Voted(p))
		if !e.Valid(knowledge.Implies(decided, knowledge.Knows(coord, voted))) {
			t.Fatalf("commit: the coordinator decided without knowing %s voted", p)
		}
	}
	got := knowledge.NewAtom(cmt.GotCommit("p2"))
	if !e.Valid(knowledge.Implies(got, knowledge.Knows(trace.Singleton("p2"), knowledge.NewAtom(cmt.VotedYes("p1"))))) {
		t.Fatal("commit: p2 got commit without knowing p1 voted yes")
	}
	_, witness := e.Summary(knowledge.Common(decided))
	if witness < 0 {
		t.Fatal("commit: the decision is common knowledge everywhere")
	}
	requireViews(t, "commit", u, witness)

	trk, err := tracker.New("q", "p", 2)
	if err != nil {
		t.Fatal(err)
	}
	u = universe.MustEnumerateWith(trk, universe.WithMaxEvents(trk.SuggestedMaxEvents()))
	e = knowledge.NewEvaluator(u)
	bit := knowledge.NewAtom(trk.Bit())
	if !e.LocalTo(bit, trace.Singleton(trk.Owner)) {
		t.Fatal("tracker: the bit is not local to its owner")
	}
	if e.LocalTo(bit, trace.Singleton(trk.Tracker)) {
		t.Fatal("tracker: the bit is local to the tracker")
	}
	_, witness = e.Summary(knowledge.Sure(trace.Singleton(trk.Tracker), bit))
	requireViews(t, "tracker", u, witness)
}

// requireViews checks that u has built no view, then renders member
// witness and checks that it has.
func requireViews(t *testing.T, name string, u *universe.Universe, witness int) {
	t.Helper()
	if n := universe.BuiltViews(u); n != 0 {
		t.Errorf("%s: the checks built %d member views", name, n)
	}
	u.At(witness)
	if universe.BuiltViews(u) == 0 {
		t.Errorf("%s: rendering witness %d built no view", name, witness)
	}
}
