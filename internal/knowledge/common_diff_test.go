package knowledge_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// componentsUniverse is a hand-built universe of processes p and q in
// three components of the singleton relations' union: every member has
// events on both processes, and only members of one group share a
// p-history or a q-history.
func componentsUniverse(t testing.TB) *universe.Universe {
	t.Helper()
	build := func(steps ...string) *trace.Computation {
		b := trace.NewBuilder()
		for _, s := range steps {
			b.Internal(trace.ProcID(s[:1]), s[2:])
		}
		return b.MustBuild()
	}
	u := universe.New([]*trace.Computation{
		build("p:a", "q:b", "p:c"),
		build("q:x", "p:y"),
		build("p:a", "q:b"),
		build("p:u", "q:v"),
		build("p:a", "q:b", "p:c", "q:d"),
		build("q:x", "p:y", "q:z"),
	}, trace.NewProcSet("p", "q"))
	if _, n := u.Components(); n < 2 {
		t.Fatalf("hand-built universe has %d components, want at least 2", n)
	}
	return u
}

// TestCommonMatchesNaive is the common-knowledge differential: C F from
// the Evaluator's component labels equals, at every member, the
// greatest fixpoint of the naive reference (NaiveCommon, run once per
// formula and read at every member, with F evaluated by EvalNaive). F
// ranges over atoms, their negations, K of an atom, true, and dense
// random truth vectors, on the bundled protocol universes, the S3
// quotient of free p,q,r (whose singleton tables list members under
// renamed classes too) and a hand-built universe of several components.
func TestCommonMatchesNaive(t *testing.T) {
	type testUniverse struct {
		name  string
		u     *universe.Universe
		atoms []knowledge.Formula
	}
	var cases []testUniverse
	for _, du := range diffUniverses(t) {
		cases = append(cases, testUniverse{du.name, du.u, atomPool(du.u)})
	}
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	quo, err := universe.EnumerateWith(free3, universe.WithMaxEvents(4), universe.WithSymmetry(universe.InferSymmetry(free3)))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, testUniverse{"free-3-S3-quotient", quo, []knowledge.Formula{
		knowledge.NewAtom(knowledge.AnySentTag("m")),
		knowledge.NewAtom(knowledge.AnyReceivedTag("m")),
		knowledge.NewAtom(knowledge.NoMessagesInFlight()),
	}})
	hb := componentsUniverse(t)
	cases = append(cases, testUniverse{"handbuilt", hb, []knowledge.Formula{
		knowledge.NewAtom(knowledge.DidInternal("p", "a")),
		knowledge.Or(knowledge.NewAtom(knowledge.DidInternal("p", "y")), knowledge.NewAtom(knowledge.DidInternal("p", "u"))),
		knowledge.NewAtom(knowledge.EventCountAtLeast(trace.NewProcSet("p", "q"), 3)),
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := c.u
			fs := []knowledge.Formula{knowledge.True}
			for _, a := range c.atoms {
				fs = append(fs, a, knowledge.Not(a))
			}
			if all := u.All(); all.Len() > 0 && !u.IsQuotient() {
				fs = append(fs, knowledge.Knows(trace.Singleton(all.IDs()[0]), c.atoms[0]))
			}
			// Random truth vectors, true at nine members in ten. They
			// are declared symmetric so the quotient admits them: both
			// evaluators read the same vector, which is all the
			// differential needs.
			r := rand.New(rand.NewSource(1985))
			for k := range 6 {
				in := make([]bool, u.Len())
				for i := range in {
					in[i] = r.Intn(10) > 0
				}
				fs = append(fs, knowledge.NewAtom(knowledge.NewPredicate(fmt.Sprintf("random%d", k),
					func(x *trace.Computation) bool { return in[u.IndexOf(x)] }).Symmetric()))
			}
			vec := knowledge.NewEvaluator(u)
			for _, f := range fs {
				ck := knowledge.Common(f)
				fixpoint := knowledge.NaiveCommon(u, func(j int) bool { return knowledge.EvalNaive(u, f, j) })
				for i := range u.Len() {
					if got, want := vec.HoldsAt(ck, i), fixpoint[i]; got != want {
						t.Fatalf("%s at member %d: by components %v, fixpoint %v", ck, i, got, want)
					}
				}
			}
			if _, n := u.Components(); n > 1 {
				// Some F must hold on a component without being valid,
				// or the per-component reduction is never exercised.
				partial := false
				for _, f := range fs {
					h, _ := vec.Summary(knowledge.Common(f))
					partial = partial || (h > 0 && h < u.Len())
				}
				if !partial {
					t.Fatalf("no formula is common knowledge on some components only")
				}
			}
		})
	}
}
