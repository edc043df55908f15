package knowledge_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// freshFormulas draws n distinct formulas in serve-fresh's shape: three
// operators stacked over an atom, each unary or binary with an atom as
// its other operand, so inner levels recur across formulas and a new
// formula mostly costs its top one or two nodes.
func freshFormulas(r *rand.Rand, atoms []knowledge.Formula, sets []trace.ProcSet, n int) []knowledge.Formula {
	atom := func() knowledge.Formula { return atoms[r.Intn(len(atoms))] }
	wrap := func(f knowledge.Formula) knowledge.Formula {
		a := atom()
		if r.Intn(2) == 0 {
			f, a = a, f
		}
		switch r.Intn(15) {
		case 0:
			return knowledge.Not(f)
		case 1:
			return knowledge.Knows(sets[r.Intn(len(sets))], f)
		case 2:
			return knowledge.Common(f)
		case 3:
			return knowledge.EX(f)
		case 4:
			return knowledge.EF(f)
		case 5:
			return knowledge.AG(f)
		case 6:
			return knowledge.AF(f)
		case 7:
			return knowledge.EY(f)
		case 8:
			return knowledge.Once(f)
		case 9:
			return knowledge.Hist(f)
		case 10:
			return knowledge.And(f, a)
		case 11:
			return knowledge.Or(f, a)
		case 12:
			return knowledge.Implies(f, a)
		case 13:
			return knowledge.EU(f, a)
		default:
			return knowledge.AU(f, a)
		}
	}
	seen := make(map[string]bool)
	out := make([]knowledge.Formula, 0, n)
	for len(out) < n {
		f := wrap(wrap(wrap(atom())))
		if !seen[f.Key()] {
			seen[f.Key()] = true
			out = append(out, f)
		}
	}
	return out
}

// BenchmarkFreshFormulas checks 1,200 fresh serve-fresh-style formulas
// on one evaluator over the reference universe (p,q,r, two sends, six
// events: 107,593 members), split between 1 or 2 goroutines that claim
// formulas by index. Each iteration starts a new evaluator with the
// atoms evaluated; the partitions of every process set and the
// transition graph are built once, as on a warmed hpld session. The
// ratio of the two rows is how far concurrent queries on one session
// overlap.
func BenchmarkFreshFormulas(b *testing.B) {
	procs := []trace.ProcID{"p", "q", "r"}
	u := universe.MustEnumerateWith(universe.NewFree(universe.FreeConfig{Procs: procs, MaxSends: 2}), universe.WithMaxEvents(6))
	var atoms []knowledge.Formula
	for _, p := range procs {
		atoms = append(atoms, knowledge.NewAtom(knowledge.SentTag(p, "m")), knowledge.NewAtom(knowledge.ReceivedTag(p, "m")))
	}
	atoms = append(atoms,
		knowledge.NewAtom(knowledge.AnySentTag("m")),
		knowledge.NewAtom(knowledge.AnyReceivedTag("m")),
		knowledge.NewAtom(knowledge.NoMessagesInFlight()))
	var sets []trace.ProcSet
	for mask := 1; mask < 1<<len(procs); mask++ {
		var s []trace.ProcID
		for i, p := range procs {
			if mask&(1<<i) != 0 {
				s = append(s, p)
			}
		}
		sets = append(sets, trace.NewProcSet(s...))
		u.Partition(sets[len(sets)-1])
	}
	u.Transitions()
	u.Components()
	suite := freshFormulas(rand.New(rand.NewSource(1)), atoms, sets, 1200)

	for _, goroutines := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				ev := knowledge.NewEvaluator(u)
				for _, a := range atoms {
					ev.Valid(a)
				}
				b.StartTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for range goroutines {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(len(suite)); i = next.Add(1) - 1 {
							ev.WeightedSummary(suite[i])
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}
