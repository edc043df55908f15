package tokenbus

import (
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("p"); err == nil {
		t.Errorf("single-process bus must be rejected")
	}
	if _, err := New("p", "q", "p"); err == nil {
		t.Errorf("duplicate process must be rejected")
	}
	if _, err := New("p", "q"); err != nil {
		t.Errorf("two-process bus rejected: %v", err)
	}
}

func TestNeighbors(t *testing.T) {
	b := MustNew("p", "q", "r")
	cases := []struct {
		p    trace.ProcID
		want []trace.ProcID
	}{
		{"p", []trace.ProcID{"q"}},
		{"q", []trace.ProcID{"p", "r"}},
		{"r", []trace.ProcID{"q"}},
		{"zz", nil},
	}
	for _, c := range cases {
		got := b.Neighbors(c.p)
		if len(got) != len(c.want) {
			t.Errorf("Neighbors(%s) = %v, want %v", c.p, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Neighbors(%s) = %v, want %v", c.p, got, c.want)
			}
		}
	}
}

func TestEnumerateThreeBus(t *testing.T) {
	b := MustNew("p", "q", "r")
	u, err := b.Enumerate(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 {
		t.Fatal("empty universe")
	}
	// Single-token invariant: in every member, at most one process holds
	// the token, and if no transfer is in flight, exactly one does.
	holders := make([]knowledge.Predicate, 0, 3)
	for _, p := range b.Procs() {
		holders = append(holders, b.TokenAt(p))
	}
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		n := 0
		for _, h := range holders {
			if h.Holds(c) {
				n++
			}
		}
		inFlight := len(c.InFlight())
		if n+inFlight != 1 {
			t.Fatalf("member %d: holders=%d inflight=%d", i, n, inFlight)
		}
	}
}

func TestTokenKnowledgeThreeBus(t *testing.T) {
	// Scaled-down version of the paper's claim, checkable exhaustively:
	// on the bus p,q,r, whenever r holds the token,
	// r knows (q knows ¬token@p).
	b := MustNew("p", "q", "r")
	u, err := b.Enumerate(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := knowledge.NewEvaluator(u)
	atP := knowledge.NewAtom(b.TokenAt("p"))
	atR := knowledge.NewAtom(b.TokenAt("r"))
	q, r := trace.NewProcSet("q"), trace.NewProcSet("r")
	claim := knowledge.Implies(atR, knowledge.Knows(r, knowledge.Knows(q, knowledge.Not(atP))))
	if !e.Valid(claim) {
		t.Fatalf("token-bus knowledge claim fails on 3-process bus")
	}
	// Non-vacuity: r holds the token somewhere.
	some := false
	for i := 0; i < u.Len() && !some; i++ {
		some = e.HoldsAt(atR, i)
	}
	if !some {
		t.Fatalf("r never holds the token; enumeration too shallow")
	}
}

func TestTokenKnowledgeFiveBusPaperClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("five-process enumeration is slow in -short mode")
	}
	// The paper's exact claim on p,q,r,s,t: when r holds the token,
	// r knows ((q knows ¬token@p) ∧ (s knows ¬token@t)).
	b := MustNew("p", "q", "r", "s", "t")
	u, err := b.Enumerate(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := knowledge.NewEvaluator(u)
	atP := knowledge.NewAtom(b.TokenAt("p"))
	atT := knowledge.NewAtom(b.TokenAt("t"))
	atR := knowledge.NewAtom(b.TokenAt("r"))
	q, r, s := trace.NewProcSet("q"), trace.NewProcSet("r"), trace.NewProcSet("s")
	claim := knowledge.Implies(atR, knowledge.Knows(r, knowledge.And(
		knowledge.Knows(q, knowledge.Not(atP)),
		knowledge.Knows(s, knowledge.Not(atT)),
	)))
	if !e.Valid(claim) {
		t.Fatalf("paper's token-bus claim fails")
	}
	some := false
	for i := 0; i < u.Len() && !some; i++ {
		some = e.HoldsAt(atR, i)
	}
	if !some {
		t.Fatalf("r never holds the token; enumeration too shallow")
	}
}

func TestSimulateConservesToken(t *testing.T) {
	b := MustNew("p", "q", "r", "s")
	c, err := b.Simulate(11, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one holder or one in-flight token at the end.
	holders := 0
	for _, p := range b.Procs() {
		if b.TokenAt(p).Holds(c) {
			holders++
		}
	}
	if holders+len(c.InFlight()) != 1 {
		t.Fatalf("token not conserved: holders=%d inflight=%d", holders, len(c.InFlight()))
	}
	// 20 hops happened: 20 receives tagged token.
	recv := 0
	for _, e := range c.Events() {
		if e.Kind == trace.KindReceive && e.Tag == TokenTag {
			recv++
		}
	}
	if recv != 20 {
		t.Fatalf("token receives = %d, want 20", recv)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	b := MustNew("p", "q", "r")
	c1, err := b.Simulate(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := b.Simulate(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.SameAs(c2) {
		t.Fatalf("same seed must reproduce the run")
	}
}

// TestSimulateRejectsNonPositiveHops: a walk of no hops, or of a
// negative number of them, is an error rather than a run.
func TestSimulateRejectsNonPositiveHops(t *testing.T) {
	b := MustNew("p", "q")
	for _, hops := range []int{0, -1} {
		if c, err := b.Simulate(1, hops); err == nil {
			t.Fatalf("Simulate(1, %d) = %v, want an error", hops, c)
		}
	}
}
