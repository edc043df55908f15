package hpl_test

import (
	"strings"
	"testing"

	"hpl"
)

func TestQuickstartFlow(t *testing.T) {
	c := hpl.NewBuilder().Send("p", "q", "hello").Receive("q", "p").MustBuild()
	ck := hpl.MustCheckProtocol(hpl.NewFree(hpl.FreeConfig{
		Procs:    []hpl.ProcID{"p", "q"},
		MaxSends: 1,
		SendTags: []string{"hello"},
	}), hpl.WithMaxEvents(4))
	b := hpl.NewAtom(hpl.SentTag("p", "hello"))
	if !ck.MustHolds(hpl.Knows(hpl.NewProcSet("q"), b), c) {
		t.Fatalf("q must know b after receiving")
	}
	before := c.Prefix(1)
	if ck.MustHolds(hpl.Knows(hpl.NewProcSet("q"), b), before) {
		t.Fatalf("q must not know b before receiving")
	}
	// The same learning event, phrased temporally: before the receive q
	// does not know b, yet along every extension q's knowledge of b can
	// only appear after the message arrives.
	gain := hpl.AG(hpl.Implies(hpl.Knows(hpl.Singleton("q"), b),
		hpl.Once(hpl.NewAtom(hpl.ReceivedTag("q", "hello")))))
	if rep := ck.CheckTemporal(gain); !rep.AtInit || !rep.Valid() {
		t.Fatalf("gain theorem must hold temporally: %+v", rep)
	}
}

// TestExtendStrengthensGainTheorem grows a universe incrementally and
// re-checks Theorem 5's temporal form at each bound: a larger MaxEvents
// means longer message chains, so each extension is a strictly stronger
// witness of the same law.
func TestExtendStrengthensGainTheorem(t *testing.T) {
	ck := hpl.MustCheckProtocol(hpl.NewFree(hpl.FreeConfig{
		Procs:    []hpl.ProcID{"p", "q"},
		MaxSends: 1,
		SendTags: []string{"hello"},
	}), hpl.WithMaxEvents(3))
	b := hpl.NewAtom(hpl.SentTag("p", "hello"))
	gain := hpl.AG(hpl.Implies(hpl.Knows(hpl.Singleton("q"), b),
		hpl.Once(hpl.NewAtom(hpl.ReceivedTag("q", "hello")))))

	u := ck.Universe()
	for _, bound := range []int{4, 5, 6} {
		var err error
		u, err = hpl.ExtendUniverse(u, hpl.WithMaxEvents(bound))
		if err != nil {
			t.Fatalf("extend to %d: %v", bound, err)
		}
		rep := hpl.NewChecker(u).CheckTemporal(gain)
		if !rep.AtInit || !rep.Valid() {
			t.Fatalf("gain theorem must hold at MaxEvents=%d (%d members): %+v",
				bound, u.Len(), rep)
		}
	}
}

func TestFacadeIsomorphism(t *testing.T) {
	x := hpl.NewBuilder().Internal("p", "a").Internal("q", "b").MustBuild()
	y := hpl.NewBuilder().Internal("q", "b").Internal("p", "a").MustBuild()
	label := hpl.LargestLabel(x, y, hpl.NewProcSet("p", "q"))
	if !label.Equal(hpl.NewProcSet("p", "q")) {
		t.Fatalf("label = %v", label)
	}
	u := hpl.NewUniverse([]*hpl.Computation{x, y, hpl.Empty()}, hpl.NewProcSet("p", "q"))
	if !hpl.Related(u, x, []hpl.ProcSet{hpl.Singleton("p"), hpl.Singleton("q")}, y) {
		t.Fatalf("x [p q] y must hold")
	}
}

func TestFacadeFusion(t *testing.T) {
	all := hpl.NewProcSet("p", "q")
	x := hpl.Empty()
	y := hpl.NewBuilder().Internal("p", "work").MustBuild()
	z := hpl.NewBuilder().Internal("q", "work").MustBuild()
	f, err := hpl.Theorem2(x, y, z, hpl.Singleton("p"), all)
	if err != nil {
		t.Fatal(err)
	}
	if f.W.Len() != 2 {
		t.Fatalf("w len = %d", f.W.Len())
	}
	sq, err := hpl.Lemma1(x, y, z, hpl.Singleton("q"), hpl.Singleton("p"), all)
	if err != nil {
		t.Fatal(err)
	}
	if sq.W.Len() != 2 {
		t.Fatalf("square w len = %d", sq.W.Len())
	}
}

func TestFacadeFormulaLanguage(t *testing.T) {
	vocab := hpl.NewVocabulary(hpl.SentTag("p", "m"))
	f, err := hpl.ParseFormula(`K{q} "sent(p,m)"`, vocab)
	if err != nil {
		t.Fatal(err)
	}
	printed := hpl.PrintFormula(f)
	if !strings.Contains(printed, "K{q}") {
		t.Fatalf("printed = %q", printed)
	}
	re, err := hpl.ParseFormula(printed, vocab)
	if err != nil || re.Key() != f.Key() {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestFacadeDiagram(t *testing.T) {
	x := hpl.NewBuilder().Internal("p", "a").MustBuild()
	y := hpl.NewBuilder().Internal("p", "a").Internal("q", "c").MustBuild()
	d := hpl.NewDiagram([]hpl.Vertex{{Name: "x", Comp: x}, {Name: "y", Comp: y}}, hpl.NewProcSet("p", "q"))
	label, ok := d.EdgeBetween("x", "y")
	if !ok || label.Key() != "p" {
		t.Fatalf("edge = %v %v", label, ok)
	}
	if !strings.Contains(d.DOT("t"), "graph") {
		t.Fatalf("DOT output broken")
	}
}

func TestFacadePredicates(t *testing.T) {
	c := hpl.NewBuilder().
		Send("p", "q", "token").
		Receive("q", "p").
		Internal("q", "work").
		MustBuild()
	if !hpl.SentTag("p", "token").Holds(c) {
		t.Errorf("SentTag")
	}
	if !hpl.ReceivedTag("q", "token").Holds(c) {
		t.Errorf("ReceivedTag")
	}
	if !hpl.DidInternal("q", "work").Holds(c) {
		t.Errorf("DidInternal")
	}
	if !hpl.TokenAt("q", "p", "token").Holds(c) {
		t.Errorf("TokenAt")
	}
	custom := hpl.NewCount("long", func(hpl.Event) int32 { return 1 }, func(n int32) bool { return n > 2 })
	if !custom.Holds(c) {
		t.Errorf("custom predicate")
	}
}

func TestFacadeFormulaConstructors(t *testing.T) {
	b := hpl.NewAtom(hpl.SentTag("p", "m"))
	f := hpl.Implies(hpl.And(b, hpl.True), hpl.Or(hpl.Not(b), hpl.False))
	if f.Key() == "" {
		t.Fatalf("empty key")
	}
	g := hpl.Common(hpl.Sure(hpl.Singleton("p"), b))
	if g.String() == "" {
		t.Fatalf("empty string")
	}
}
