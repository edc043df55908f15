package knowledge_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/heartbeat"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// diffUniverse names one enumerated protocol universe from
// internal/protocols. Bounds are kept small: the naive oracle's nested
// knowledge is exponential in class sizes, and the point here is
// agreement, not scale.
type diffUniverse struct {
	name string
	u    *universe.Universe
}

func diffUniverses(t testing.TB) []diffUniverse {
	t.Helper()
	enumerate := func(p universe.Protocol, maxEvents int) *universe.Universe {
		u, err := universe.EnumerateWith(p, universe.WithMaxEvents(maxEvents))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	hb, err := heartbeat.New("w", "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracker.New("o", "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	return []diffUniverse{
		{"free", enumerate(universe.NewFree(universe.FreeConfig{
			Procs:    []trace.ProcID{"p", "q"},
			MaxSends: 1,
		}), 4)},
		{"tokenbus", enumerate(tokenbus.MustNew("p", "q", "r"), 4)},
		{"commit", enumerate(commit.MustNew("c", "p1", "p2"), 5)},
		{"heartbeat", enumerate(hb, 4)},
		{"tracker", enumerate(tr, 4)},
		{"ackchain", enumerate(ackchain.MustNew("p", "q", 2), 4)},
	}
}

// atomPool derives a handful of predicates that are actually
// discriminating on the universe: sends and receives observed in its
// members, plus event-count thresholds.
func atomPool(u *universe.Universe) []knowledge.Formula {
	type sig struct {
		kind trace.Kind
		proc trace.ProcID
		tag  string
	}
	seen := make(map[sig]struct{})
	var atoms []knowledge.Formula
	add := func(p knowledge.Predicate) { atoms = append(atoms, knowledge.NewAtom(p)) }
	for i := 0; i < u.Len() && len(atoms) < 6; i++ {
		for _, e := range u.At(i).Events() {
			if e.Kind == trace.KindInternal {
				continue
			}
			s := sig{e.Kind, e.Proc, e.Tag}
			if _, dup := seen[s]; dup {
				continue
			}
			seen[s] = struct{}{}
			if e.Kind == trace.KindSend {
				add(knowledge.SentTag(e.Proc, e.Tag))
			} else {
				add(knowledge.ReceivedTag(e.Proc, e.Tag))
			}
			if len(atoms) >= 6 {
				break
			}
		}
	}
	for _, p := range u.All().IDs() {
		add(knowledge.EventCountAtLeast(trace.Singleton(p), 1))
		if len(atoms) >= 8 {
			break
		}
	}
	return atoms
}

// randFormula draws a random formula exercising every connective:
// atoms, ¬, ∧, ∨, ⇒, K, Sure, Common, and the full temporal layer
// (EX/AX/EF/AF/EG/AG, both untils, and the past operators), nested up
// to the depth — so the differential covers epistemic operators inside
// temporal ones and vice versa.
func randFormula(r *rand.Rand, atoms []knowledge.Formula, procs []trace.ProcID, depth int) knowledge.Formula {
	if depth <= 0 || r.Intn(4) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	randSet := func() trace.ProcSet {
		if len(procs) > 1 && r.Intn(3) == 0 {
			return trace.NewProcSet(procs[r.Intn(len(procs))], procs[r.Intn(len(procs))])
		}
		return trace.Singleton(procs[r.Intn(len(procs))])
	}
	sub := func() knowledge.Formula { return randFormula(r, atoms, procs, depth-1) }
	switch r.Intn(16) {
	case 0:
		return knowledge.Not(sub())
	case 1:
		return knowledge.And(sub(), sub())
	case 2:
		return knowledge.Or(sub(), sub())
	case 3:
		return knowledge.Implies(sub(), sub())
	case 4, 5:
		return knowledge.Knows(randSet(), sub())
	case 6:
		return knowledge.Sure(randSet(), sub())
	case 7:
		return knowledge.Common(sub())
	case 8:
		if r.Intn(2) == 0 {
			return knowledge.EX(sub())
		}
		return knowledge.AX(sub())
	case 9:
		if r.Intn(2) == 0 {
			return knowledge.EF(sub())
		}
		return knowledge.AF(sub())
	case 10:
		if r.Intn(2) == 0 {
			return knowledge.EG(sub())
		}
		return knowledge.AG(sub())
	case 11:
		return knowledge.EU(sub(), sub())
	case 12:
		return knowledge.AU(sub(), sub())
	case 13:
		if r.Intn(2) == 0 {
			return knowledge.EY(sub())
		}
		return knowledge.AY(sub())
	case 14:
		return knowledge.Once(sub())
	default:
		return knowledge.Hist(sub())
	}
}

// TestVectorizedMatchesNaive is the engine differential: on every
// bundled protocol, for a batch of randomized formulas over all
// connectives, the vectorized evaluator and the naive reference
// (EvalNaive) agree bit for bit at every member of the universe.
func TestVectorizedMatchesNaive(t *testing.T) {
	for _, du := range diffUniverses(t) {
		t.Run(du.name, func(t *testing.T) {
			u := du.u
			atoms := atomPool(u)
			procs := u.All().IDs()
			r := rand.New(rand.NewSource(20260729))
			vec := knowledge.NewEvaluator(u)
			for fi := 0; fi < 24; fi++ {
				f := randFormula(r, atoms, procs, 3)
				for i := 0; i < u.Len(); i++ {
					got := vec.HoldsAt(f, i)
					if want := knowledge.EvalNaive(u, f, i); got != want {
						t.Fatalf("formula %s at member %d: vectorized %v, naive %v", f, i, got, want)
					}
				}
			}
		})
	}
}

// TestTemporalVectorizedMatchesNaive is the temporal differential: on
// every enumerable protocol, the single-sweep temporal fixpoints agree
// bit for bit with the naive recursive reference on the
// temporal-epistemic shapes the theorem checks use — gain
// (AG(K → Once)), until-phrased gain (A[¬K U r]), stability
// (AG(K → AG K)), loss (EF(K ∧ EX ¬K)), and past/future nestings of
// Common and Sure.
func TestTemporalVectorizedMatchesNaive(t *testing.T) {
	for _, du := range diffUniverses(t) {
		t.Run(du.name, func(t *testing.T) {
			u := du.u
			atoms := atomPool(u)
			if len(atoms) < 2 {
				t.Skip("not enough atoms derivable")
			}
			b, r := atoms[0], atoms[1]
			procs := u.All().IDs()
			p := trace.Singleton(procs[0])
			kb := knowledge.Knows(p, b)
			cases := []knowledge.Formula{
				knowledge.AG(knowledge.Implies(kb, knowledge.Once(r))),
				knowledge.AU(knowledge.Not(kb), r),
				knowledge.EU(b, kb),
				knowledge.AG(knowledge.Implies(kb, knowledge.AG(kb))),
				knowledge.EF(knowledge.And(kb, knowledge.EX(knowledge.Not(kb)))),
				knowledge.EG(knowledge.Or(b, r)),
				knowledge.AF(knowledge.Sure(p, b)),
				knowledge.Hist(knowledge.Implies(r, knowledge.Once(b))),
				knowledge.EY(knowledge.AY(b)),
				knowledge.AG(knowledge.Not(knowledge.Common(b))),
				knowledge.Knows(p, knowledge.EF(kb)),
				knowledge.Once(knowledge.Common(knowledge.Or(b, knowledge.Not(b)))),
			}
			vec := knowledge.NewEvaluator(u)
			for _, f := range cases {
				for i := 0; i < u.Len(); i++ {
					got := vec.HoldsAt(f, i)
					if want := knowledge.EvalNaive(u, f, i); got != want {
						t.Fatalf("formula %s at member %d: vectorized %v, naive %v", f, i, got, want)
					}
				}
			}
		})
	}
}

// TestTruthVectorAgreesWithHoldsAt pins the set-at-a-time API to the
// per-member one on a randomized batch.
func TestTruthVectorAgreesWithHoldsAt(t *testing.T) {
	du := diffUniverses(t)[0]
	u := du.u
	atoms := atomPool(u)
	r := rand.New(rand.NewSource(7))
	e := knowledge.NewEvaluator(u)
	for fi := 0; fi < 10; fi++ {
		f := randFormula(r, atoms, u.All().IDs(), 3)
		tv := e.TruthVector(f)
		holding, firstFailure := e.Summary(f)
		count, wantFirst := 0, -1
		for i, v := range tv {
			if v != e.HoldsAt(f, i) {
				t.Fatalf("formula %s: TruthVector[%d] disagrees with HoldsAt", f, i)
			}
			if v {
				count++
			} else if wantFirst < 0 {
				wantFirst = i
			}
		}
		if holding != count || firstFailure != wantFirst {
			t.Fatalf("formula %s: Summary = (%d,%d), want (%d,%d)", f, holding, firstFailure, count, wantFirst)
		}
	}
}

// TestNestedCommonUnderKnows is the regression test for the memo
// write-back hazard: common-knowledge evaluation produces a whole truth
// vector while an enclosing evaluation of the same memo is suspended.
// Nesting Common under Knows (and under Not, and Common under Common)
// exercises exactly that re-entrancy in the Evaluator, checked against
// EvalNaive.
func TestNestedCommonUnderKnows(t *testing.T) {
	for _, du := range diffUniverses(t) {
		t.Run(du.name, func(t *testing.T) {
			u := du.u
			atoms := atomPool(u)
			if len(atoms) == 0 {
				t.Skip("no atoms derivable")
			}
			b := atoms[0]
			var cases []knowledge.Formula
			for _, p := range u.All().IDs() {
				cases = append(cases,
					knowledge.Knows(trace.Singleton(p), knowledge.Common(b)),
					knowledge.Implies(knowledge.Common(b), knowledge.Knows(trace.Singleton(p), b)),
				)
			}
			cases = append(cases,
				knowledge.Common(knowledge.Common(b)),
				knowledge.Not(knowledge.Common(knowledge.Not(b))),
				knowledge.Sure(u.All(), knowledge.Common(b)),
			)
			for _, f := range cases {
				// Fresh evaluators per formula so the nested Common is
				// the first thing each memo sees (the hazard needs a
				// cold memo to bite).
				vec := knowledge.NewEvaluator(u)
				for i := 0; i < u.Len(); i++ {
					want := knowledge.EvalNaive(u, f, i)
					if got := vec.HoldsAt(f, i); got != want {
						t.Fatalf("formula %s at member %d: vectorized %v, naive %v", f, i, got, want)
					}
				}
			}
		})
	}
}

// TestConcurrentEvaluatorQueries drives one shared Evaluator and
// several private ones against one shared universe from many
// goroutines (run under -race in CI): partition construction and the
// vector memo must both be goroutine-safe.
func TestConcurrentEvaluatorQueries(t *testing.T) {
	u := diffUniverses(t)[1].u // tokenbus
	atoms := atomPool(u)
	procs := u.All().IDs()
	shared := knowledge.NewEvaluator(u)

	// Sequential ground truth.
	r := rand.New(rand.NewSource(99))
	formulas := make([]knowledge.Formula, 12)
	want := make([][]bool, len(formulas))
	oracle := knowledge.NewEvaluator(u)
	for i := range formulas {
		formulas[i] = randFormula(r, atoms, procs, 3)
		want[i] = oracle.TruthVector(formulas[i])
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := knowledge.NewEvaluator(u)
			for rep := 0; rep < 3; rep++ {
				for fi, f := range formulas {
					idx := (g + fi + rep) % u.Len()
					if got := shared.HoldsAt(f, idx); got != want[fi][idx] {
						errs <- fmt.Errorf("shared evaluator: formula %d at %d: got %v", fi, idx, got)
						return
					}
					if got := mine.HoldsAt(f, idx); got != want[fi][idx] {
						errs <- fmt.Errorf("private evaluator: formula %d at %d: got %v", fi, idx, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
