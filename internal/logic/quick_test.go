package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// randomFormula draws a random formula over the given vocabulary names,
// with depth-bounded recursion — a structural fuzzer for the
// print/parse round trip.
func randomFormula(r *rand.Rand, v Vocabulary, names []string, depth int) knowledge.Formula {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return knowledge.True
		case 1:
			return knowledge.False
		default:
			return knowledge.NewAtom(v[names[r.Intn(len(names))]])
		}
	}
	procSets := []trace.ProcSet{
		trace.Singleton("p"),
		trace.Singleton("q"),
		trace.NewProcSet("p", "q"),
		// Reserved words are legal process names inside K{...}/S{...}.
		trace.Singleton("A"),
		trace.NewProcSet("E", "Once"),
	}
	sub := func() knowledge.Formula { return randomFormula(r, v, names, depth-1) }
	switch r.Intn(14) {
	case 0:
		return knowledge.Not(sub())
	case 1:
		return knowledge.And(sub(), sub())
	case 2:
		return knowledge.Or(sub(), sub())
	case 3:
		return knowledge.Implies(sub(), sub())
	case 4:
		return knowledge.Knows(procSets[r.Intn(len(procSets))], sub())
	case 5:
		return knowledge.Sure(procSets[r.Intn(len(procSets))], sub())
	case 6:
		return knowledge.Common(sub())
	case 7:
		return [...]func(knowledge.Formula) knowledge.Formula{
			knowledge.EX, knowledge.AX,
		}[r.Intn(2)](sub())
	case 8:
		return [...]func(knowledge.Formula) knowledge.Formula{
			knowledge.EF, knowledge.AF,
		}[r.Intn(2)](sub())
	case 9:
		return [...]func(knowledge.Formula) knowledge.Formula{
			knowledge.EG, knowledge.AG,
		}[r.Intn(2)](sub())
	case 10:
		return knowledge.EU(sub(), sub())
	case 11:
		return knowledge.AU(sub(), sub())
	case 12:
		return [...]func(knowledge.Formula) knowledge.Formula{
			knowledge.EY, knowledge.AY,
		}[r.Intn(2)](sub())
	default:
		return [...]func(knowledge.Formula) knowledge.Formula{
			knowledge.Once, knowledge.Hist,
		}[r.Intn(2)](sub())
	}
}

func fuzzVocab() (Vocabulary, []string) {
	preds := []knowledge.Predicate{
		knowledge.SentTag("p", "m"),
		knowledge.ReceivedTag("q", "m"),
		knowledge.NewCount("plain_name", func(trace.Event) int32 { return 1 }, func(n int32) bool { return n > 0 }),
		knowledge.NewCount("with@at", func(trace.Event) int32 { return 1 }, func(n int32) bool { return n > 1 }),
	}
	v := NewVocabulary(preds...)
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	return v, names
}

func TestPrintParseRoundTripRandomFormulas(t *testing.T) {
	v, names := fuzzVocab()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		formula := randomFormula(r, v, names, 5)
		printed := Print(formula)
		back, err := Parse(printed, v)
		if err != nil {
			t.Logf("formula %q failed to reparse: %v", printed, err)
			return false
		}
		return back.Key() == formula.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomFormulasEvaluateIdenticallyAfterRoundTrip(t *testing.T) {
	// Semantic (not just structural) round trip: the reparsed formula
	// evaluates identically at every member of a universe.
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(3))
	if err != nil {
		t.Fatal(err)
	}
	v, names := fuzzVocab()
	e := knowledge.NewEvaluator(u)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		formula := randomFormula(r, v, names, 4)
		back, err := Parse(Print(formula), v)
		if err != nil {
			return false
		}
		for i := 0; i < u.Len(); i++ {
			if e.HoldsAt(formula, i) != e.HoldsAt(back, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
