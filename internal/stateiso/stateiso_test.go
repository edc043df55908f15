package stateiso

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

func ps(ids ...trace.ProcID) trace.ProcSet { return trace.NewProcSet(ids...) }

func freeU(t testing.TB) *universe.Universe {
	t.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFullHistoryMatchesComputationIsomorphism(t *testing.T) {
	u := freeU(t)
	e := NewEvaluator(u, FullHistory())
	sets := []trace.ProcSet{ps("p"), ps("q"), ps("p", "q"), ps()}
	for i := 0; i < u.Len(); i++ {
		for j := 0; j < u.Len(); j++ {
			for _, p := range sets {
				abstract := e.Isomorphic(i, j, p)
				concrete := u.At(i).IsomorphicTo(u.At(j), p)
				if abstract != concrete {
					t.Fatalf("full-history disagrees with [%v] at (%d,%d)", p, i, j)
				}
			}
		}
	}
}

func TestFullHistoryKnowledgeMatches(t *testing.T) {
	u := freeU(t)
	abstract := NewEvaluator(u, FullHistory())
	concrete := knowledge.NewEvaluator(u)
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	formulas := []knowledge.Formula{
		b,
		knowledge.Knows(ps("q"), b),
		knowledge.Knows(ps("p"), knowledge.Knows(ps("q"), b)),
		knowledge.Sure(ps("q"), b),
		knowledge.Common(knowledge.True),
		knowledge.Knows(ps("p"), knowledge.Common(knowledge.Or(b, knowledge.Not(knowledge.Knows(ps("q"), b))))),
		knowledge.Common(knowledge.Implies(knowledge.Common(b), b)),
		knowledge.EF(knowledge.Knows(ps("q"), b)),
	}
	for _, f := range formulas {
		got, want := abstract.TruthVector(f), concrete.TruthVector(f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("full-history evaluator disagrees on %v at member %d", f, i)
			}
		}
	}
}

func TestCoarseAbstractionMergesStates(t *testing.T) {
	// Under Counters, sending to p and sending to q are the same state.
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"a", "b", "c"},
		MaxSends: 1,
	}), universe.WithMaxEvents(2))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(u, Counters())
	x := trace.NewBuilder().Send("a", "b", "m").MustBuild()
	y := trace.NewBuilder().Send("a", "c", "m").MustBuild()
	xi, yi := u.IndexOf(x), u.IndexOf(y)
	if xi < 0 || yi < 0 {
		t.Fatal("members missing")
	}
	if !e.Isomorphic(xi, yi, ps("a")) {
		t.Fatalf("counters must merge send-to-b with send-to-c")
	}
	if u.At(xi).IsomorphicTo(u.At(yi), ps("a")) {
		t.Fatalf("computation isomorphism must distinguish them")
	}
}

func TestEquivalenceFactsAllAbstractions(t *testing.T) {
	u := freeU(t)
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	b2 := knowledge.NewAtom(knowledge.ReceivedTag("q", "m"))
	for _, abs := range []Abstraction{FullHistory(), Counters(), LastEvent()} {
		e := NewEvaluator(u, abs)
		for _, pair := range []struct{ p, q trace.ProcSet }{
			{ps("p"), ps("q")},
			{ps("q"), ps("p")},
			{ps("p", "q"), ps("p")},
		} {
			if err := knowledge.CheckKnowledgeFacts(e.Evaluator, pair.p, pair.q, b, b2); err != nil {
				t.Errorf("%s: %v", abs.Name(), err)
			}
		}
	}
}

func TestAbstractionSoundness(t *testing.T) {
	u := freeU(t)
	concrete := knowledge.NewEvaluator(u)
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	for _, abs := range []Abstraction{FullHistory(), Counters(), LastEvent()} {
		e := NewEvaluator(u, abs)
		for _, p := range []trace.ProcSet{ps("p"), ps("q"), ps("p", "q")} {
			if err := CheckAbstractionSound(e, concrete, p, b); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

func TestLemma4HoldsUnderFullHistory(t *testing.T) {
	u := freeU(t)
	e := NewEvaluator(u, FullHistory())
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	if v := FindLemma4Violation(e, ps("q"), b); v != nil {
		t.Fatalf("full history must satisfy lemma 4; violation %+v", v)
	}
}

func TestLemma4CanFailUnderLossyAbstraction(t *testing.T) {
	// Build a system where receiving genuinely destroys knowledge under
	// the last-event abstraction: q's knowledge that p sent, held while
	// q's last event was the receive, is lost when q's last event
	// becomes an internal one — wait, internal events are not receives.
	// The receive case: q receives m2 after m1; under last-event the
	// state after receiving m2 may coincide with histories that never
	// saw m1. Use two sends with distinct tags.
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
		SendTags: []string{"m1", "m2"},
	}), universe.WithMaxEvents(5), universe.WithCap(200000))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(u, LastEvent())
	b := knowledge.NewAtom(knowledge.SentTag("p", "m1"))
	v := FindLemma4Violation(e, ps("q"), b)
	if v == nil {
		t.Skip("no violation in this universe; lossy failure not exhibited here")
	}
	if v.Event.Kind != trace.KindReceive {
		t.Fatalf("violation event is %v", v.Event)
	}
}

func TestAbstractionNames(t *testing.T) {
	if FullHistory().Name() != "full-history" ||
		Counters().Name() != "counters" ||
		LastEvent().Name() != "last-event" {
		t.Fatalf("abstraction names changed")
	}
}

func TestStateOfDirect(t *testing.T) {
	c := trace.NewBuilder().Send("p", "q", "m").Internal("p", "w").MustBuild()
	proj := c.Projection(ps("p"))
	if got := Counters().StateOf("p", proj); got != "s1r0i1" {
		t.Fatalf("counters state = %q", got)
	}
	if got := LastEvent().StateOf("p", nil); got != "" {
		t.Fatalf("empty last-event state = %q", got)
	}
}

func TestValidUnderAbstraction(t *testing.T) {
	u := freeU(t)
	e := NewEvaluator(u, Counters())
	// Veridicality is valid under any abstraction.
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	if !e.Valid(knowledge.Implies(knowledge.Knows(ps("q"), b), b)) {
		t.Fatalf("veridicality must be valid")
	}
}

func TestLockstepUniverse(t *testing.T) {
	procs := []trace.ProcID{"a", "b"}
	u, err := Lockstep(procs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Members: prefixes of interleavings; rounds complete in order.
	done := knowledge.NewEvaluator(u).TruthVector(RoundDone(procs, 1))
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		// If any r2 event exists, every process completed r1.
		hasR2 := false
		for _, e := range c.Events() {
			if e.Tag == "r2" {
				hasR2 = true
			}
		}
		if hasR2 && !done[i] {
			t.Fatalf("member %d starts round 2 before round 1 completes", i)
		}
	}
	if _, err := Lockstep(nil, 1); err == nil {
		t.Fatal("empty lockstep accepted")
	}
}

func TestTimedIsomorphismGainsCommonKnowledge(t *testing.T) {
	// The §6 boundary: with observable global time, common knowledge of
	// "round 1 complete" IS gained (at every computation of length ≥ n),
	// while under the paper's asynchronous isomorphism it never is.
	procs := []trace.ProcID{"a", "b"}
	u, err := Lockstep(procs, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := RoundDone(procs, 1)

	async := NewEvaluator(u, FullHistory())
	if got := CommonKnowledgeGained(async, b); len(got) != 0 {
		t.Fatalf("async CK gained at %d members; the corollary forbids it", len(got))
	}

	timed := NewTimedEvaluator(u, FullHistory())
	got := CommonKnowledgeGained(timed, b)
	if len(got) == 0 {
		t.Fatalf("timed CK never gained; simultaneity should enable it")
	}
	// CK holds exactly at members of length ≥ 2 (both finished round 1).
	for _, i := range got {
		if u.At(i).Len() < len(procs) {
			t.Fatalf("timed CK at too-short member %d", i)
		}
	}
	for i := 0; i < u.Len(); i++ {
		if u.At(i).Len() >= len(procs) {
			found := false
			for _, j := range got {
				if j == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("timed CK missing at member %d (length %d)", i, u.At(i).Len())
			}
		}
	}
}

func TestTimedEvaluatorStillSatisfiesS5(t *testing.T) {
	// Time refines the equivalence; the S5 facts still hold.
	u, err := Lockstep([]trace.ProcID{"a", "b"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := NewTimedEvaluator(u, FullHistory())
	b := RoundDone([]trace.ProcID{"a", "b"}, 1)
	b2 := RoundDone([]trace.ProcID{"a", "b"}, 2)
	if err := knowledge.CheckKnowledgeFacts(e.Evaluator, ps("a"), ps("b"), b, b2); err != nil {
		t.Fatal(err)
	}
}

// componentsUniverse is a hand-built universe of processes p and q in
// three components of the singleton relations' union under full
// history: every member has events on both processes, and only members
// of one group share a p-history or a q-history.
func componentsUniverse(t testing.TB) *universe.Universe {
	t.Helper()
	build := func(steps ...string) *trace.Computation {
		b := trace.NewBuilder()
		for _, s := range steps {
			b.Internal(trace.ProcID(s[:1]), s[2:])
		}
		return b.MustBuild()
	}
	return universe.New([]*trace.Computation{
		build("p:a", "q:b", "p:c"),
		build("q:x", "p:y"),
		build("p:a", "q:b"),
		build("p:u", "q:v"),
		build("p:a", "q:b", "p:c", "q:d"),
		build("q:x", "p:y", "q:z"),
	}, ps("p", "q"))
}

// randomFormula draws a formula of at most the given depth over the
// atoms, with K, Sure and C among its operators.
func randomFormula(r *rand.Rand, atoms []knowledge.Formula, sets []trace.ProcSet, depth int) knowledge.Formula {
	if depth == 0 || r.Intn(5) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	sub := func() knowledge.Formula { return randomFormula(r, atoms, sets, depth-1) }
	switch r.Intn(7) {
	case 0:
		return knowledge.Not(sub())
	case 1:
		return knowledge.And(sub(), sub())
	case 2:
		return knowledge.Or(sub(), sub())
	case 3:
		return knowledge.Implies(sub(), sub())
	case 4:
		return knowledge.Sure(sets[r.Intn(len(sets))], sub())
	case 5:
		return knowledge.Common(sub())
	default:
		return knowledge.Knows(sets[r.Intn(len(sets))], sub())
	}
}

// TestStateKnowledgeMatchesDefinition is the reference for state-based
// knowledge. The test computes K from the definition, comparing the
// StateOf of every pair of members' projections, and C as the greatest
// fixpoint over the abstract singleton classes. Both must equal the
// evaluator's truth vectors on random formulas, under coarse, custom
// and timed abstractions, over a free universe, a lockstep universe and
// one whose abstract relation has several components.
func TestStateKnowledgeMatchesDefinition(t *testing.T) {
	lock, err := Lockstep([]trace.ProcID{"a", "b"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	atom := knowledge.NewAtom
	cases := []struct {
		name  string
		u     *universe.Universe
		atoms []knowledge.Formula
	}{
		{"free", freeU(t), []knowledge.Formula{
			atom(knowledge.SentTag("p", "m")), atom(knowledge.ReceivedTag("q", "m")), atom(knowledge.SentTag("q", "m")),
		}},
		{"lockstep", lock, []knowledge.Formula{
			RoundDone([]trace.ProcID{"a", "b"}, 1), atom(knowledge.DidInternal("a", "r2")), atom(knowledge.DidInternal("b", "r1")),
		}},
		{"components", componentsUniverse(t), []knowledge.Formula{
			atom(knowledge.DidInternal("p", "a")), atom(knowledge.DidInternal("q", "z")),
			atom(knowledge.EventCountAtLeast(ps("p", "q"), 3)),
		}},
	}
	idleOrBusy := NewAbstraction("idle-or-busy", func(_ trace.ProcID, proj []trace.Event) string {
		if len(proj) == 0 {
			return "idle"
		}
		return "busy"
	})
	variants := []struct {
		abs   Abstraction
		timed bool
	}{{Counters(), false}, {LastEvent(), false}, {idleOrBusy, false}, {FullHistory(), true}}
	split := false
	for _, c := range cases {
		u := c.u
		procs := u.All().IDs()
		sets := []trace.ProcSet{u.All()}
		for _, p := range procs {
			sets = append(sets, trace.Singleton(p))
		}
		for _, v := range variants {
			// state[i][k] is the abstract state of procs[k] at member i,
			// stamped with the member's length when time is observable.
			state := make([][]string, u.Len())
			for i := range state {
				x := u.At(i)
				for _, p := range procs {
					s := v.abs.StateOf(p, x.Projection(trace.Singleton(p)))
					if v.timed {
						s += "@" + strconv.Itoa(x.Len())
					}
					state[i] = append(state[i], s)
				}
			}
			related := func(i, j int, set trace.ProcSet) bool {
				for k, p := range procs {
					if set.Contains(p) && state[i][k] != state[j][k] {
						return false
					}
				}
				return true
			}
			knows := func(set trace.ProcSet, in []bool) []bool {
				out := make([]bool, len(in))
				for i := range out {
					out[i] = true
					for j := range in {
						if related(i, j, set) && !in[j] {
							out[i] = false
							break
						}
					}
				}
				return out
			}
			var def func(f knowledge.Formula) []bool
			def = func(f knowledge.Formula) []bool {
				out := make([]bool, u.Len())
				switch f := f.(type) {
				case knowledge.Atom:
					for i := range out {
						out[i] = f.Pred.Holds(u.At(i))
					}
				case knowledge.NotF:
					for i, b := range def(f.F) {
						out[i] = !b
					}
				case knowledge.AndF:
					l, r := def(f.L), def(f.R)
					for i := range out {
						out[i] = l[i] && r[i]
					}
				case knowledge.OrF:
					l, r := def(f.L), def(f.R)
					for i := range out {
						out[i] = l[i] || r[i]
					}
				case knowledge.ImpliesF:
					l, r := def(f.L), def(f.R)
					for i := range out {
						out[i] = !l[i] || r[i]
					}
				case knowledge.KnowsF:
					out = knows(f.P, def(f.F))
				case knowledge.SureF:
					yes, no := knows(f.P, def(f.F)), knows(f.P, def(knowledge.Not(f.F)))
					for i := range out {
						out[i] = yes[i] || no[i]
					}
				case knowledge.CommonF:
					// S_{k+1} = {x ∈ S_k : ∀p, y: x [p] y ⇒ y ∈ S_k}.
					out = def(f.F)
					for changed := true; changed; {
						changed = false
						for _, p := range procs {
							for i, in := range knows(trace.Singleton(p), out) {
								if out[i] && !in {
									out[i], changed = false, true
								}
							}
						}
					}
				default:
					t.Fatalf("unexpected formula %T", f)
				}
				return out
			}
			var e *Evaluator
			if v.timed {
				e = NewTimedEvaluator(u, v.abs)
			} else {
				e = NewEvaluator(u, v.abs)
			}
			_, ncomp := e.rel.Components()
			r := rand.New(rand.NewSource(1985))
			for range 40 {
				f := randomFormula(r, c.atoms, sets, 3)
				got, want := e.TruthVector(f), def(f)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, %s: %s at member %d: evaluator %v, definition %v",
							c.name, e.Abstraction().Name(), f, i, got[i], want[i])
					}
				}
				if h, _ := e.Summary(knowledge.Common(f)); ncomp > 1 && h > 0 && h < u.Len() {
					split = true
				}
			}
		}
	}
	// Some C F must hold on some components only, or the per-component
	// reduction under an abstract relation is never exercised.
	if !split {
		t.Fatal("no formula is common knowledge on some abstract components only")
	}
}

// TestEvaluatorRefusesQuotient: abstract states are taken member by
// member, so they cannot be read through the computations a quotient
// member stands for. Free p, q, r under the symmetry {q, r}, and its
// commutation quotient, are quotients on which the computation
// evaluator's weighted counts still equal the full universe's, and the
// state evaluator must refuse both rather than answer differently.
func TestEvaluatorRefusesQuotient(t *testing.T) {
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	sym, err := universe.NewSymmetry([]trace.ProcID{"q", "r"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := universe.EnumerateWith(free3, universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	for kind, opt := range map[string]universe.Option{
		"symmetry":    universe.WithSymmetry(sym),
		"commutation": universe.WithCommutation(),
	} {
		quo, err := universe.EnumerateWith(free3, universe.WithMaxEvents(4), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []knowledge.Formula{
			knowledge.Knows(ps("p"), knowledge.Knows(ps("q", "r"), knowledge.NewAtom(knowledge.AnySentTag("m")))),
			knowledge.Knows(ps("q", "r"), knowledge.NewAtom(knowledge.SentTag("p", "m"))),
		} {
			want, _ := knowledge.NewEvaluator(full).Summary(f)
			if got := knowledge.NewEvaluator(quo).CountWeighted(f); got != int64(want) {
				t.Fatalf("%s: %s: quotient counts %d, full universe %d", kind, f, got, want)
			}
		}
		for name, build := range map[string]func(){
			"untimed": func() { NewEvaluator(quo, FullHistory()) },
			"timed":   func() { NewTimedEvaluator(quo, Counters()) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "quotient") {
						t.Errorf("%s evaluator over a %s quotient: recovered %v, want a refusal", name, kind, r)
					}
				}()
				build()
			}()
		}
	}
	NewEvaluator(full, FullHistory()) // the full universe is accepted
}

// TestEvaluatorConcurrentQueries runs K, C and class queries from 8
// goroutines on one fresh evaluator, so the relation builds its
// partitions and components under contention; every answer must equal
// a sequential evaluator's.
func TestEvaluatorConcurrentQueries(t *testing.T) {
	u := freeU(t)
	b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	sets := []trace.ProcSet{ps("p"), ps("q"), ps("p", "q")}
	var fs []knowledge.Formula
	for _, set := range sets {
		fs = append(fs, knowledge.Knows(set, b), knowledge.Common(knowledge.Or(b, knowledge.Knows(set, b))))
	}
	// The reference answers all queries before the goroutines start.
	ref := NewEvaluator(u, Counters())
	want := make([][]bool, len(fs))
	for k, f := range fs {
		want[k] = ref.TruthVector(f)
	}
	for _, set := range sets {
		ref.Class(0, set)
	}
	shared := NewEvaluator(u, Counters())
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range fs {
				f := (k + g) % len(fs)
				if !slices.Equal(shared.TruthVector(fs[f]), want[f]) {
					t.Errorf("goroutine %d: %s differs from the sequential evaluator", g, fs[f])
				}
				set := sets[(k+g)%len(sets)]
				for i := range u.Len() {
					if !slices.Equal(shared.Class(i, set), ref.Class(i, set)) {
						t.Errorf("goroutine %d: class of member %d for %s differs", g, i, set)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
