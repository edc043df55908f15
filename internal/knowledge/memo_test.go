package knowledge_test

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// memoFormula draws a formula of at most the given depth over the
// atoms: the boolean connectives, K over the given process sets, C,
// and the temporal operators EX, EF, AG, AF, EY, Once, Hist and both
// untils.
func memoFormula(r *rand.Rand, atoms []knowledge.Formula, sets []trace.ProcSet, depth int) knowledge.Formula {
	if depth <= 0 || r.Intn(5) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	sub := func() knowledge.Formula { return memoFormula(r, atoms, sets, depth-1) }
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
		return knowledge.Knows(sets[r.Intn(len(sets))], sub())
	case 6:
		return knowledge.Common(sub())
	case 7:
		return knowledge.EX(sub())
	case 8:
		return knowledge.EF(sub())
	case 9:
		return knowledge.AG(sub())
	case 10:
		return knowledge.AF(sub())
	case 11:
		return knowledge.EY(sub())
	case 12:
		return knowledge.Once(sub())
	case 13:
		return knowledge.Hist(sub())
	case 14:
		return knowledge.EU(sub(), sub())
	default:
		return knowledge.AU(sub(), sub())
	}
}

// TestMemoGrowthAmortized requires the memo's slot table to grow
// geometrically: evaluating 2,000 distinct formulas one at a time adds
// a page to it O(log n) times in the number of interned nodes, not once
// per new formula.
func TestMemoGrowthAmortized(t *testing.T) {
	procs := []trace.ProcID{"p", "q"}
	u := universe.MustEnumerateWith(universe.NewFree(universe.FreeConfig{Procs: procs, MaxSends: 1}), universe.WithMaxEvents(4))
	atoms := atomPool(u)
	sets := []trace.ProcSet{trace.Singleton("p"), trace.Singleton("q"), trace.NewProcSet(procs...)}
	ev := knowledge.NewEvaluator(u)
	r := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	last, _ := knowledge.MemoSlots(ev)
	reallocs := 0
	for len(seen) < 2000 {
		f := memoFormula(r, atoms, sets, 3)
		if seen[f.Key()] {
			continue
		}
		seen[f.Key()] = true
		ev.Valid(f)
		if addr, _ := knowledge.MemoSlots(ev); addr != last {
			reallocs++
			last = addr
		}
	}
	_, nodes := knowledge.MemoSlots(ev)
	if limit := 4 * bits.Len(uint(nodes)); reallocs > limit {
		t.Fatalf("%d distinct formulas (%d nodes) grew the slot table %d times, want at most %d", len(seen), nodes, reallocs, limit)
	}
}

// memoVerdict is everything the differential compares for one formula.
type memoVerdict struct {
	holding, first             int
	wHolding, wFirst, weighted int64
	valid                      bool
}

func verdictOf(ev *knowledge.Evaluator, f knowledge.Formula) memoVerdict {
	h, first := ev.Summary(f)
	wh, wfirst, w := ev.WeightedSummary(f)
	return memoVerdict{h, first, int64(wh), int64(wfirst), w, ev.Valid(f)}
}

// TestTrimmedMemoMatchesUnbounded is the eviction differential: 2,000
// seeded depth-3 formulas get the same Summary, WeightedSummary and
// Valid from an evaluator whose memo is trimmed after every third query
// as from one that is never trimmed, and a trim leaves exactly the
// pinned bytes. It runs on the free
// hub,w1,w2 system and its {w1,w2} symmetry quotient, each enumerated
// at parallelism 1, 2 and 8, and then with 8 goroutines querying and
// trimming one evaluator. The full universe's formulas take K over
// every process set; the quotient's over every set the group fixes.
func TestTrimmedMemoMatchesUnbounded(t *testing.T) {
	group, err := universe.NewSymmetry([]trace.ProcID{"w1", "w2"})
	if err != nil {
		t.Fatal(err)
	}
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"hub", "w1", "w2"}, MaxSends: 2})
	hub, all := trace.Singleton("hub"), trace.NewProcSet("hub", "w1", "w2")
	symAtoms := []knowledge.Formula{
		knowledge.NewAtom(knowledge.AnySentTag("m")),
		knowledge.NewAtom(knowledge.AnyReceivedTag("m")),
		knowledge.NewAtom(knowledge.NoMessagesInFlight()),
		knowledge.NewAtom(knowledge.SentTag("hub", "m")),
		knowledge.NewAtom(knowledge.ReceivedTag("hub", "m")),
		knowledge.NewAtom(knowledge.EventCountAtLeast(hub, 2)),
	}
	fullAtoms := append(append([]knowledge.Formula(nil), symAtoms...),
		knowledge.NewAtom(knowledge.SentTag("w1", "m")),
		knowledge.NewAtom(knowledge.ReceivedTag("w2", "m")),
		knowledge.NewAtom(knowledge.EventCountAtLeast(trace.Singleton("w1"), 1)),
	)
	var fullSets []trace.ProcSet
	ids := all.IDs()
	for mask := 1; mask < 1<<len(ids); mask++ {
		var s []trace.ProcID
		for i, p := range ids {
			if mask&(1<<i) != 0 {
				s = append(s, p)
			}
		}
		fullSets = append(fullSets, trace.NewProcSet(s...))
	}
	cases := []struct {
		name  string
		sym   *universe.Symmetry
		atoms []knowledge.Formula
		sets  []trace.ProcSet
	}{
		{"full", nil, fullAtoms, fullSets},
		{"quotient", group, symAtoms, []trace.ProcSet{hub, trace.NewProcSet("w1", "w2"), all}},
	}
	const formulas, every = 2000, 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(30))
			suite := make([]knowledge.Formula, formulas)
			for i := range suite {
				suite[i] = memoFormula(r, tc.atoms, tc.sets, 3)
			}
			var u *universe.Universe
			var want []memoVerdict
			for _, workers := range []int{1, 2, 8} {
				opts := []universe.Option{universe.WithMaxEvents(4), universe.WithParallelism(workers)}
				if tc.sym != nil {
					opts = append(opts, universe.WithSymmetry(tc.sym))
				}
				u = universe.MustEnumerateWith(proto, opts...)
				unbounded, trimmed := knowledge.NewEvaluator(u), knowledge.NewEvaluator(u)
				want = make([]memoVerdict, len(suite))
				for k, f := range suite {
					want[k] = verdictOf(unbounded, f)
					if got := verdictOf(trimmed, f); got != want[k] {
						t.Fatalf("workers=%d: %s: trimmed memo gives %+v, unbounded %+v", workers, f, got, want[k])
					}
					if k%every == every-1 {
						trimmed.TrimMemo()
						if b, pinned := trimmed.MemoBytes(), trimmed.PinnedBytes(); b != pinned || b != trimmed.MemoStats().Bytes {
							t.Fatalf("workers=%d: a trim left %d memo bytes, %d of them pinned", workers, b, pinned)
						}
					}
				}
				if st := trimmed.MemoStats(); st.Evictions == 0 {
					t.Fatalf("workers=%d: memo %+v after the run, want evictions", workers, st)
				}
			}

			shared := knowledge.NewEvaluator(u)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := g; k < len(suite); k += 8 {
						if got := verdictOf(shared, suite[k]); got != want[k] {
							t.Errorf("goroutine %d: %s: trimmed memo gives %+v, unbounded %+v", g, suite[k], got, want[k])
							return
						}
						if k%every == g%every {
							shared.TrimMemo()
						}
					}
				}(g)
			}
			wg.Wait()
			if st := shared.MemoStats(); st.Evictions == 0 {
				t.Fatalf("8 goroutines: no vector was trimmed: %+v", st)
			}
		})
	}
}
