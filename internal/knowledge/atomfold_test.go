package knowledge_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/obs"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
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

// refSentAny is the reference for commit's Voted and Decided, the
// closure each was before it became a history count.
func refSentAny(p trace.ProcID, a, b string) func(*trace.Computation) bool {
	sa, sb := knowledge.SentTag(p, a), knowledge.SentTag(p, b)
	return func(c *trace.Computation) bool {
		return sa.Holds(c) || sb.Holds(c)
	}
}

// refBit is the reference for tracker's Bit, the closure it was
// before it became a history count.
func refBit(owner trace.ProcID) func(*trace.Computation) bool {
	return func(c *trace.Computation) bool {
		flips := 0
		for i := 0; i < c.Len(); i++ {
			e := c.At(i)
			if e.Proc == owner && e.Kind == trace.KindInternal && e.Tag == tracker.TagFlip {
				flips++
			}
		}
		return flips%2 == 1
	}
}

// stockCases instantiates every stock predicate over the universe's
// processes and every tag its members carry, fault tags included, plus
// the atoms of the protocol p the universe was built from (nil when
// there is none).
func stockCases(u *universe.Universe, p universe.Protocol) []stockCase {
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
		{knowledge.Constant(true), func(*trace.Computation) bool { return true }},
		{knowledge.Constant(false), func(*trace.Computation) bool { return false }},
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
	switch s := p.(type) {
	case *commit.System:
		cases = append(cases, stockCase{s.Decided(), refSentAny(s.Coordinator, commit.TagCommit, commit.TagAbort)})
		for _, q := range s.Participants {
			cases = append(cases, stockCase{s.Voted(q), refSentAny(q, commit.TagVoteYes, commit.TagVoteNo)})
		}
	case *tracker.System:
		cases = append(cases, stockCase{s.Bit(), refBit(s.Owner)})
	}
	return cases
}

// requireStockMatchesReference evaluates every stock predicate the
// universe admits, and the atoms of its protocol p, in one evaluator
// and checks both its truth vector and Holds against the reference at
// every member. Sharing the evaluator also checks that no two
// predicates share a name.
func requireStockMatchesReference(t *testing.T, label string, u *universe.Universe, p universe.Protocol) {
	t.Helper()
	ev := knowledge.NewEvaluator(u)
	checked := 0
	for _, c := range stockCases(u, p) {
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
// history-count evaluation, and that of the commit and tracker atoms,
// against its reference on the differential protocols and on free
// p,q,r under each fault model: enumerated at parallelism 1, 2 and 8,
// full and (where the protocol is symmetric, and for commit under
// p1↔p2) quotient, snapshot-loaded and extended by one event, plus
// hand-built universes that are unsorted and not prefix closed.
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
	p1p2, err := universe.NewSymmetry([]trace.ProcID{"p1", "p2"})
	if err != nil {
		t.Fatal(err)
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
			if _, ok := s.p.(*commit.System); ok {
				syms = append(syms, p1p2)
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
					requireStockMatchesReference(t, label, u, s.p)
					var buf bytes.Buffer
					if err := universe.WriteSnapshot(&buf, u, "d"); err != nil {
						t.Fatal(err)
					}
					loaded, _, err := universe.ReadSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					requireStockMatchesReference(t, label+" snapshot load", loaded, s.p)
					x, err := universe.Extend(u, universe.WithMaxEvents(s.maxEvents+1), universe.WithParallelism(workers))
					if err != nil {
						t.Fatal(err)
					}
					requireStockMatchesReference(t, label+" extension", x, s.p)
				}
			}
		})
	}

	// Two members in three, shuffled: some prefixes are missing and
	// parents may follow their children.
	for _, du := range diffUniverses(t) {
		switch du.name {
		case "tokenbus", "commit", "tracker":
		default:
			continue
		}
		var comps []*trace.Computation
		for i := 1; i < du.u.Len(); i++ {
			if i%3 != 0 {
				comps = append(comps, du.u.At(i))
			}
		}
		rand.New(rand.NewSource(7)).Shuffle(len(comps), func(i, j int) { comps[i], comps[j] = comps[j], comps[i] })
		requireStockMatchesReference(t, du.name+" hand-built", universe.New(comps, du.u.All()), du.u.Protocol())
	}
}

// TestPortedAtomsOnCommitQuotient checks the commit atoms' declared
// supports on the quotient of c,p1,p2 under p1↔p2: Decided depends
// only on the coordinator, so it evaluates there and its orbit-weighted
// count equals its holding count on the full universe; Voted(p1) is
// refused, since the group moves p1.
func TestPortedAtomsOnCommitQuotient(t *testing.T) {
	s := commit.MustNew("c", "p1", "p2")
	p1p2, err := universe.NewSymmetry([]trace.ProcID{"p1", "p2"})
	if err != nil {
		t.Fatal(err)
	}
	maxEvents := s.SuggestedMaxEvents()
	full := universe.MustEnumerateWith(s, universe.WithMaxEvents(maxEvents))
	quo := universe.MustEnumerateWith(s, universe.WithMaxEvents(maxEvents), universe.WithSymmetry(p1p2))
	decided := knowledge.NewAtom(s.Decided())
	want, _ := knowledge.NewEvaluator(full).Summary(decided)
	ev := knowledge.NewEvaluator(quo)
	if err := ev.ValidateSymmetric(decided); err != nil {
		t.Fatalf("Decided refused on the p1↔p2 quotient: %v", err)
	}
	if got := ev.CountWeighted(decided); got != int64(want) || want == 0 {
		t.Errorf("Decided: weighted count %d on the quotient, %d on the full universe", got, want)
	}
	var asym *knowledge.AsymmetryError
	if err := ev.ValidateSymmetric(knowledge.NewAtom(s.Voted("p1"))); !errors.As(err, &asym) {
		t.Errorf("Voted(p1) on the p1↔p2 quotient: got %v, want an *AsymmetryError", err)
	}
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

// TestEvalAtomPhase checks that each atom evaluation is recorded once
// as an eval.atom phase in the universe's trace, and that memo hits
// record nothing.
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
	long := knowledge.NewAtom(knowledge.NewCount("long", func(trace.Event) int32 { return 1 }, func(n int32) bool { return n > 2 }))
	ev := knowledge.NewEvaluator(u)
	ev.Valid(knowledge.Or(sent, long))
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

// stockSystems are the differential protocols and free p,q,r under each
// fault model, enumerated full.
func stockSystems(t *testing.T) []diffUniverse {
	systems := diffUniverses(t)
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	for _, fm := range []string{"crash", "drop:1", "dup:1"} {
		m, err := faults.Parse(fm)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, diffUniverse{"free3/" + fm, universe.MustEnumerateWith(faults.Wrap(free3, m), universe.WithMaxEvents(4))})
	}
	return systems
}

// TestStockAtomsWellFormed checks the model requirement the commutation
// quotient rests on: every stock atom — sent, received, internal and
// their any-process closures, quiescent, the event counts, the token
// atoms, the fault atoms, commit's Voted and Decided and tracker's Bit —
// is constant on [D]-classes (CheckWellFormed) on every protocol's
// universe.
func TestStockAtomsWellFormed(t *testing.T) {
	for _, s := range stockSystems(t) {
		t.Run(s.name, func(t *testing.T) {
			for _, c := range stockCases(s.u, s.u.Protocol()) {
				if err := knowledge.CheckWellFormed(s.u, c.p); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestOnceOverMonotoneAtom checks that Once over every "some event
// matches" atom interns as the atom itself — the same node, so no new
// vector — while Once over any other stock atom ("quiescent", the
// counts, the token atoms) is a node of its own, and that Once's truth
// vector matches EvalNaive either way.
func TestOnceOverMonotoneAtom(t *testing.T) {
	ever := []string{"sent(", "received(", "internal(", "anySent(", "anyReceived(", "anyInternal(",
		"crashed(", "anyCrashed", "dropped(", "duplicated("}
	for _, s := range stockSystems(t) {
		t.Run(s.name, func(t *testing.T) {
			ev := knowledge.NewEvaluator(s.u)
			monotone := 0
			seen := make(map[string]bool)
			for _, c := range stockCases(s.u, s.u.Protocol()) {
				if seen[c.p.Name()] {
					continue // a case repeated under one name interned its Once already
				}
				seen[c.p.Name()] = true
				want := slices.ContainsFunc(ever, func(prefix string) bool { return strings.HasPrefix(c.p.Name(), prefix) })
				if c.p.Monotone() != want {
					t.Fatalf("%s: Monotone() = %v", c.p.Name(), c.p.Monotone())
				}
				a := knowledge.NewAtom(c.p)
				ev.Valid(a)
				_, before := knowledge.MemoSlots(ev)
				once := ev.TruthVector(knowledge.Once(a))
				if _, after := knowledge.MemoSlots(ev); (after == before) != want {
					t.Fatalf("%s: Once interned %d new nodes", c.p.Name(), after-before)
				}
				for i, got := range once {
					if got != knowledge.EvalNaive(s.u, knowledge.Once(a), i) {
						t.Fatalf("%s: Once at member %d: vectorized %v, naive %v", c.p.Name(), i, got, !got)
					}
				}
				if want {
					monotone++
				}
			}
			if monotone == 0 {
				t.Fatal("no monotone atom")
			}
		})
	}
}
