package knowledge_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// sharedCase is one universe of the shared-evaluator tests: the
// reference system p,q,r with two sends at three events, either full or
// quotiented by the symmetry {q,r}, with a suite of overlapping depth-3
// formulas the universe admits, each formula's serial verdict, and its
// truth at every member of the full universe by EvalNaive.
type sharedCase struct {
	name  string
	u     *universe.Universe
	suite []knowledge.Formula
	want  []memoVerdict
}

func sharedCases(t *testing.T) []sharedCase {
	t.Helper()
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
	group, err := universe.NewSymmetry([]trace.ProcID{"q", "r"})
	if err != nil {
		t.Fatal(err)
	}
	full := universe.MustEnumerateWith(proto, universe.WithMaxEvents(3))
	quo := universe.MustEnumerateWith(proto, universe.WithMaxEvents(3), universe.WithSymmetry(group))
	symAtoms := []knowledge.Formula{
		knowledge.NewAtom(knowledge.AnySentTag("m")),
		knowledge.NewAtom(knowledge.AnyReceivedTag("m")),
		knowledge.NewAtom(knowledge.NoMessagesInFlight()),
		knowledge.NewAtom(knowledge.SentTag("p", "m")),
		knowledge.NewAtom(knowledge.ReceivedTag("p", "m")),
	}
	fullAtoms := append(append([]knowledge.Formula(nil), symAtoms...),
		knowledge.NewAtom(knowledge.SentTag("q", "m")),
		knowledge.NewAtom(knowledge.ReceivedTag("r", "m")),
	)
	p, qr, all := trace.Singleton("p"), trace.NewProcSet("q", "r"), trace.NewProcSet("p", "q", "r")
	cases := []sharedCase{
		{name: "full", u: full, suite: overlappingSuite(rand.New(rand.NewSource(32)), fullAtoms,
			[]trace.ProcSet{p, trace.Singleton("q"), trace.NewProcSet("p", "r"), all})},
		{name: "quotient", u: quo, suite: overlappingSuite(rand.New(rand.NewSource(33)), symAtoms,
			[]trace.ProcSet{p, qr, all})},
	}
	for k := range cases {
		c := &cases[k]
		serial := knowledge.NewEvaluator(c.u)
		c.want = make([]memoVerdict, len(c.suite))
		for i, f := range c.suite {
			c.want[i] = verdictOf(serial, f)
			// EvalNaive on the full universe, at every member; the
			// quotient's representatives are full-universe members, and
			// its weighted count is the full universe's holding count.
			holding, first := 0, -1
			for j := range full.Len() {
				if knowledge.EvalNaive(full, f, j) {
					holding++
				}
			}
			for j := range c.u.Len() {
				if !knowledge.EvalNaive(full, f, full.IndexOf(c.u.At(j))) {
					first = j
					break
				}
			}
			if w := c.want[i]; w.weighted != int64(holding) || w.first != first {
				t.Fatalf("%s: %s: serial evaluation weighs %d with first failure %d, EvalNaive %d and %d", c.name, f, w.weighted, w.first, holding, first)
			}
		}
	}
	return cases
}

// overlappingSuite draws 48 depth-3 formulas, each an operator over one
// or two of 12 shared depth-2 formulas, so that concurrent queries keep
// missing on the same inner nodes. Common knowledge appears only on top:
// EvalNaive recomputes its fixpoint at every member it is asked about.
func overlappingSuite(r *rand.Rand, atoms []knowledge.Formula, sets []trace.ProcSet) []knowledge.Formula {
	atom := func() knowledge.Formula { return atoms[r.Intn(len(atoms))] }
	wrap := func(f, g knowledge.Formula) knowledge.Formula {
		switch r.Intn(12) {
		case 0:
			return knowledge.Not(f)
		case 1:
			return knowledge.And(f, g)
		case 2:
			return knowledge.Implies(g, f)
		case 3, 4:
			return knowledge.Knows(sets[r.Intn(len(sets))], f)
		case 5:
			return knowledge.EX(f)
		case 6:
			return knowledge.AG(f)
		case 7:
			return knowledge.AF(f)
		case 8:
			return knowledge.Once(f)
		case 9:
			return knowledge.EY(f)
		case 10:
			return knowledge.EU(g, f)
		default:
			return knowledge.AU(f, g)
		}
	}
	inner := make([]knowledge.Formula, 12)
	for i := range inner {
		inner[i] = wrap(wrap(atom(), atom()), atom())
	}
	pick := func() knowledge.Formula { return inner[r.Intn(len(inner))] }
	suite := make([]knowledge.Formula, 48)
	for i := range suite {
		if r.Intn(6) == 0 {
			suite[i] = knowledge.Common(pick())
		} else {
			suite[i] = wrap(pick(), pick())
		}
	}
	return suite
}

// queryShared has 8 goroutines query one evaluator over the whole
// suite, each starting at a different formula, while trim (when not
// nil) runs alongside; every verdict must equal the serial one.
func queryShared(t *testing.T, c sharedCase, ev *knowledge.Evaluator, trim func(stop *atomic.Bool)) {
	t.Helper()
	const goroutines = 8
	var wg, trimmer sync.WaitGroup
	var stop atomic.Bool
	if trim != nil {
		trimmer.Add(1)
		go func() {
			defer trimmer.Done()
			trim(&stop)
		}()
	}
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range c.suite {
				i := (k + g*len(c.suite)/goroutines) % len(c.suite)
				if got := verdictOf(ev, c.suite[i]); got != c.want[i] {
					t.Errorf("goroutine %d: %s: %+v, serial evaluation %+v", g, c.suite[i], got, c.want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	trimmer.Wait()
}

// TestSharedEvaluatorMatchesSerial runs 8 goroutines over one fresh
// evaluator, on the reference system's full universe and its symmetry
// quotient, with overlapping depth-3 formulas, five times over. Verdicts
// and WeightedSummary must equal serial evaluation, which sharedCases has
// checked against EvalNaive, and the memo must end with exactly the
// serial evaluator's vectors: a vector computed twice would count twice.
// Five more rounds add a goroutine that trims the memo over and over
// while the 8 query it, so that evaluations finish in generations a trim
// has already replaced; once all have stopped, one more trim must leave
// exactly the pinned bytes.
func TestSharedEvaluatorMatchesSerial(t *testing.T) {
	const rounds = 5
	for _, c := range sharedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			serial := knowledge.NewEvaluator(c.u)
			for _, f := range c.suite {
				verdictOf(serial, f)
			}
			for range rounds {
				shared := knowledge.NewEvaluator(c.u)
				queryShared(t, c, shared, nil)
				if got, want := shared.MemoStats().Vectors, serial.MemoStats().Vectors; got != want {
					t.Fatalf("the shared memo holds %d vectors after the run, the serial one %d", got, want)
				}
			}
			for range rounds {
				ev := knowledge.NewEvaluator(c.u)
				trims := 0
				queryShared(t, c, ev, func(stop *atomic.Bool) {
					for !stop.Load() || trims == 0 {
						ev.TrimMemo()
						trims++
					}
				})
				if st := ev.MemoStats(); st.Evictions == 0 {
					t.Fatalf("%d trims evicted nothing: %+v", trims, st)
				}
				ev.TrimMemo()
				if b, pinned := ev.MemoBytes(), ev.PinnedBytes(); b != pinned || b != ev.MemoStats().Bytes {
					t.Fatalf("a quiescent trim left %d memo bytes, %d of them pinned", b, pinned)
				}
			}
		})
	}
}
