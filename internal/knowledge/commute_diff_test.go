package knowledge_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/heartbeat"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// TestCommutationQuotientMatchesFull is the commutation quotient's
// differential: on every differential protocol, and on a fault-wrapped
// free system, randomized formulas over every connective are checked on
// the quotient (built at parallelism 1, 2 and 8) and on the full
// universe. Every formula ValidateCommuting admits gets the same
// full-universe holding count, validity and verdict at the null
// computation, and the truth vector EvalNaive computes on the quotient;
// every other formula is refused by the quotient's evaluator with an
// *InterleavingError.
func TestCommutationQuotientMatchesFull(t *testing.T) {
	hb, err := heartbeat.New("w", "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracker.New("o", "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	free := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	cases := []struct {
		name string
		p    universe.Protocol
		n    int
	}{
		{"free", free, 4},
		{"free3", free3, 5},
		{"free/crash,drop:1", faults.Wrap(free, faults.Model{CrashAll: true, Drops: 1}), 4},
		{"tokenbus", tokenbus.MustNew("p", "q", "r"), 4},
		{"commit", commit.MustNew("c", "p1", "p2"), 5},
		{"heartbeat", hb, 4},
		{"tracker", tr, 4},
		{"ackchain", ackchain.MustNew("p", "q", 2), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := universe.MustEnumerateWith(tc.p, universe.WithMaxEvents(tc.n))
			atoms := atomPool(full)
			procs := full.All().IDs()
			r := rand.New(rand.NewSource(20261020))
			formulas := make([]knowledge.Formula, 40)
			for k := range formulas {
				formulas[k] = randFormula(r, atoms, procs, 3)
			}
			fev := knowledge.NewEvaluator(full)
			admitted := 0
			for _, par := range []int{1, 2, 8} {
				quo := universe.MustEnumerateWith(tc.p, universe.WithMaxEvents(tc.n), universe.WithCommutation(), universe.WithParallelism(par))
				qev := knowledge.NewEvaluator(quo)
				for _, f := range formulas {
					label := fmt.Sprintf("parallelism %d: %s", par, f)
					err := knowledge.ValidateCommuting(f)
					if got := qev.ValidateSymmetric(f); (err == nil) != (got == nil) {
						t.Fatalf("%s: ValidateCommuting %v, the quotient's evaluator %v", label, err, got)
					}
					if err != nil {
						var ie *knowledge.InterleavingError
						if !errors.As(err, &ie) {
							t.Fatalf("%s: refused with %T, want *InterleavingError", label, err)
						}
						continue
					}
					admitted++
					fh, _ := fev.Summary(f)
					_, qff, w := qev.WeightedSummary(f)
					if w != int64(fh) || (qff < 0) != fev.Valid(f) {
						t.Fatalf("%s: quotient holds at %d (valid %v), full universe at %d (valid %v)", label, w, qff < 0, fh, fev.Valid(f))
					}
					if got, want := qev.HoldsAt(f, quo.Initial()), fev.HoldsAt(f, full.Initial()); got != want {
						t.Fatalf("%s: %v at the null computation, want %v", label, got, want)
					}
					for i := range quo.Len() {
						if got, want := qev.HoldsAt(f, i), knowledge.EvalNaive(quo, f, i); got != want {
							t.Fatalf("%s: member %d: vectorized %v, naive %v", label, i, got, want)
						}
					}
				}
			}
			if admitted == 0 || admitted == 3*len(formulas) {
				t.Fatalf("%d of %d formula checks admitted: the suite must exercise both routes", admitted, 3*len(formulas))
			}
		})
	}
}

// TestCommutationQuotientRefusesPast checks the refusals by
// construction: each past operator, and Once over a count that is not
// monotone, are refused, with an *InterleavingError from the validator
// and a panic carrying one from the evaluator's non-error paths; Once
// over a monotone atom is admitted.
func TestCommutationQuotientRefusesPast(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	quo := universe.MustEnumerateWith(p, universe.WithMaxEvents(4), universe.WithCommutation())
	sent := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	quiet := knowledge.NewAtom(knowledge.NoMessagesInFlight())
	for _, f := range []knowledge.Formula{
		knowledge.EY(sent),
		knowledge.AY(sent),
		knowledge.Hist(sent),
		knowledge.Once(quiet),
		knowledge.Once(knowledge.Not(sent)),
		knowledge.AG(knowledge.Knows(trace.Singleton("q"), knowledge.EY(sent))),
	} {
		var ie *knowledge.InterleavingError
		if err := knowledge.ValidateCommuting(f); !errors.As(err, &ie) {
			t.Errorf("%s: ValidateCommuting = %v", f, err)
		}
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.As(err, &ie) {
					t.Errorf("%s: evaluation on the quotient did not panic with an *InterleavingError: %v", f, err)
				}
			}()
			knowledge.NewEvaluator(quo).Valid(f)
		}()
	}
	if err := knowledge.ValidateCommuting(knowledge.AG(knowledge.Implies(sent, knowledge.Once(sent)))); err != nil {
		t.Errorf("Once over a monotone atom refused: %v", err)
	}
}
