package knowledge_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/obs"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// stockCase pairs a stock predicate with its reference semantics: a
// scan of the computation's events written out by hand, as each
// predicate was defined before it became a history count.
type stockCase struct {
	p   knowledge.Predicate
	ref func(*trace.Computation) bool
}

// refEver is the reference for the "some event matches" predicates.
func refEver(match func(e trace.Event) bool) func(*trace.Computation) bool {
	return func(c *trace.Computation) bool {
		for e := range c.Backward() {
			if match(e) {
				return true
			}
		}
		return false
	}
}

func refTokenAt(p, initialHolder trace.ProcID, tag string) func(*trace.Computation) bool {
	return func(c *trace.Computation) bool {
		recv, sent := 0, 0
		for e := range c.Backward() {
			if e.Proc != p || e.Tag != tag {
				continue
			}
			switch e.Kind {
			case trace.KindReceive:
				recv++
			case trace.KindSend:
				sent++
			}
		}
		if p == initialHolder {
			return recv == sent
		}
		return recv == sent+1
	}
}

func refQuiescent(c *trace.Computation) bool {
	inFlight := 0
	for e := range c.Backward() {
		switch e.Kind {
		case trace.KindSend:
			inFlight++
		case trace.KindReceive:
			inFlight--
		}
	}
	return inFlight == 0
}

// stockCases instantiates every stock predicate over the universe's
// processes and every tag its members carry, fault tags included.
func stockCases(u *universe.Universe) []stockCase {
	procs := u.All().IDs()
	seen := make(map[string]bool)
	var tags []string
	for i := 0; i < u.Len(); i++ {
		for e := range u.At(i).Backward() {
			if !seen[e.Tag] {
				seen[e.Tag] = true
				tags = append(tags, e.Tag)
			}
		}
	}
	cases := []stockCase{
		{knowledge.NoMessagesInFlight(), refQuiescent},
		{knowledge.AnyCrashed(), refEver(func(e trace.Event) bool {
			return e.Kind == trace.KindInternal && e.Tag == faults.TagCrash
		})},
	}
	for _, n := range []int{0, 1, 2, 4} {
		for _, set := range []trace.ProcSet{u.All(), trace.Singleton(procs[0]), trace.NewProcSet(procs[0], procs[len(procs)-1])} {
			cases = append(cases, stockCase{knowledge.EventCountAtLeast(set, n), func(c *trace.Computation) bool {
				return len(c.Projection(set)) >= n
			}})
		}
	}
	for _, p := range procs {
		cases = append(cases, stockCase{knowledge.Crashed(p), refEver(func(e trace.Event) bool {
			return e.Kind == trace.KindInternal && e.Proc == p && e.Tag == faults.TagCrash
		})})
	}
	for _, tag := range tags {
		cases = append(cases,
			stockCase{knowledge.AnySentTag(tag), refEver(func(e trace.Event) bool {
				return e.Kind == trace.KindSend && e.Tag == tag
			})},
			stockCase{knowledge.AnyReceivedTag(tag), refEver(func(e trace.Event) bool {
				return e.Kind == trace.KindReceive && e.Tag == tag
			})},
			stockCase{knowledge.AnyDidInternal(tag), refEver(func(e trace.Event) bool {
				return e.Kind == trace.KindInternal && e.Tag == tag
			})},
			stockCase{knowledge.Dropped(tag), refEver(func(e trace.Event) bool {
				return e.Kind == trace.KindInternal && e.Tag == faults.DropTag(tag)
			})},
			stockCase{knowledge.Duplicated(tag), refEver(func(e trace.Event) bool {
				return e.Kind == trace.KindSend && e.Tag == faults.DupTag(tag)
			})},
		)
		for _, p := range procs {
			cases = append(cases,
				stockCase{knowledge.SentTag(p, tag), refEver(func(e trace.Event) bool {
					return e.Kind == trace.KindSend && e.Proc == p && e.Tag == tag
				})},
				stockCase{knowledge.ReceivedTag(p, tag), refEver(func(e trace.Event) bool {
					return e.Kind == trace.KindReceive && e.Proc == p && e.Tag == tag
				})},
				stockCase{knowledge.DidInternal(p, tag), refEver(func(e trace.Event) bool {
					return e.Kind == trace.KindInternal && e.Proc == p && e.Tag == tag
				})},
			)
			for _, holder := range procs {
				cases = append(cases, stockCase{knowledge.TokenAt(p, holder, tag), refTokenAt(p, holder, tag)})
			}
		}
	}
	return cases
}

// requireStockMatchesReference evaluates every stock predicate the
// universe admits in one evaluator and checks both its truth vector and
// Holds against the reference at every member. Sharing the evaluator
// also checks that no two predicates share a name.
func requireStockMatchesReference(t *testing.T, label string, u *universe.Universe) {
	t.Helper()
	ev := knowledge.NewEvaluator(u)
	checked := 0
	for _, c := range stockCases(u) {
		if !c.p.SymmetricUnder(u.Symmetry()) {
			continue
		}
		checked++
		vec := ev.TruthVector(knowledge.NewAtom(c.p))
		for j, got := range vec {
			x := u.At(j)
			want := c.ref(x)
			if got != want {
				t.Fatalf("%s: %s: truth vector says %v at member %d (%v), reference %v", label, c.p.Name(), got, j, x, want)
			}
			if h := c.p.Holds(x); h != want {
				t.Fatalf("%s: %s: Holds = %v at member %d (%v), reference %v", label, c.p.Name(), h, j, x, want)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no stock predicate evaluable", label)
	}
}

// TestStockAtomsMatchReference differences every stock predicate's
// history-count evaluation against its reference on the differential
// protocols and on free p,q,r under each fault model: enumerated at
// parallelism 1, 2 and 8, full and (where the protocol is symmetric)
// quotient, snapshot-loaded and extended by one event, plus a
// hand-built universe that is unsorted and not prefix closed.
func TestStockAtomsMatchReference(t *testing.T) {
	type system struct {
		name      string
		p         universe.Protocol
		maxEvents int
	}
	var systems []system
	for _, du := range diffUniverses(t) {
		systems = append(systems, system{du.name, du.u.Protocol(), du.u.MaxEvents()})
	}
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	for _, fm := range []string{"none", "crash", "drop:1", "dup:1"} {
		m, err := faults.Parse(fm)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{"free3/" + fm, faults.Wrap(free3, m), 3})
	}
	for _, s := range systems {
		t.Run(s.name, func(t *testing.T) {
			syms := []*universe.Symmetry{nil}
			if g := universe.InferSymmetry(s.p); !g.Trivial() {
				syms = append(syms, g)
			}
			for _, sym := range syms {
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("workers=%d quotient=%v", workers, sym != nil)
					opts := []universe.Option{universe.WithMaxEvents(s.maxEvents), universe.WithParallelism(workers)}
					if sym != nil {
						opts = append(opts, universe.WithSymmetry(sym))
					}
					u, err := universe.EnumerateWith(s.p, opts...)
					if err != nil {
						t.Fatal(err)
					}
					requireStockMatchesReference(t, label, u)
					var buf bytes.Buffer
					if err := universe.WriteSnapshot(&buf, u, "d"); err != nil {
						t.Fatal(err)
					}
					loaded, _, err := universe.ReadSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					requireStockMatchesReference(t, label+" snapshot load", loaded)
					x, err := universe.Extend(u, universe.WithMaxEvents(s.maxEvents+1), universe.WithParallelism(workers))
					if err != nil {
						t.Fatal(err)
					}
					requireStockMatchesReference(t, label+" extension", x)
				}
			}
		})
	}

	// Two members in three, shuffled: some prefixes are missing and
	// parents may follow their children.
	u := diffUniverses(t)[1].u // tokenbus
	var comps []*trace.Computation
	for i := 1; i < u.Len(); i++ {
		if i%3 != 0 {
			comps = append(comps, u.At(i))
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(comps), func(i, j int) { comps[i], comps[j] = comps[j], comps[i] })
	requireStockMatchesReference(t, "hand-built", universe.New(comps, u.All()))
}

// TestTokenAtNamesHolderAndTag evaluates two token atoms that differ
// only in the initial holder in one evaluator: the memo keys atoms by
// name, so the name must tell them apart.
func TestTokenAtNamesHolderAndTag(t *testing.T) {
	u := universe.MustEnumerateWith(tokenbus.MustNew("p", "q", "r"), universe.WithMaxEvents(4))
	ev := knowledge.NewEvaluator(u)
	for _, holder := range []trace.ProcID{"p", "q"} {
		b := knowledge.TokenAt("q", holder, tokenbus.TokenTag)
		want := 0
		for i := 0; i < u.Len(); i++ {
			if b.Holds(u.At(i)) {
				want++
			}
		}
		if got, _ := ev.Summary(knowledge.NewAtom(b)); got != want {
			t.Errorf("TokenAt(q, %s): holds at %d members, want %d", holder, got, want)
		}
	}
	if a, b := knowledge.TokenAt("q", "p", "t1"), knowledge.TokenAt("q", "p", "t2"); a.Name() == b.Name() {
		t.Errorf("TokenAt with tags t1 and t2 share the name %q", a.Name())
	}
}

// TestEvalAtomPhase checks that each atom evaluation, history count or
// opaque, is recorded once as an eval.atom phase in the universe's
// trace, and that memo hits record nothing.
func TestEvalAtomPhase(t *testing.T) {
	tr := obs.NewTrace()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(4), universe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	sent := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	opaque := knowledge.NewAtom(knowledge.NewPredicate("long", func(c *trace.Computation) bool { return c.Len() > 2 }))
	ev := knowledge.NewEvaluator(u)
	ev.Valid(knowledge.Or(sent, opaque))
	ev.Valid(knowledge.Knows(trace.Singleton("q"), sent))
	var atoms int64
	for _, ps := range tr.Phases() {
		if ps.Name == "eval.atom" {
			atoms = ps.Count
		}
	}
	if atoms != 2 {
		t.Errorf("eval.atom recorded %d times, want 2 (phases: %v)", atoms, tr.Phases())
	}
}
