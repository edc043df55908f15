package knowledge

import (
	"strings"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

func ps(ids ...trace.ProcID) trace.ProcSet { return trace.NewProcSet(ids...) }

// pingPong enumerates a two-process free system where each process may
// send one message: rich enough for two levels of knowledge (p learns
// that q learned).
func pingPong(t testing.TB) *universe.Universe {
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestKnowsOwnAction(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	x := trace.NewBuilder().Send("p", "q", "m").MustBuild()
	// p knows it sent; q does not know yet.
	if !e.MustHolds(Knows(ps("p"), b), x) {
		t.Errorf("p must know its own send")
	}
	if e.MustHolds(Knows(ps("q"), b), x) {
		t.Errorf("q cannot know about p's unobserved send")
	}
	// Fact 4 instance: knowledge implies truth.
	if !e.MustHolds(b, x) {
		t.Errorf("b must hold")
	}
}

func TestKnowledgeAfterReceive(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	y := trace.NewBuilder().Send("p", "q", "m").Receive("q", "p").MustBuild()
	if !e.MustHolds(Knows(ps("q"), b), y) {
		t.Errorf("q must know b after receiving p's message")
	}
	// But p does not know that q knows: the receive is unobserved by p.
	if e.MustHolds(Knows(ps("p"), Knows(ps("q"), b)), y) {
		t.Errorf("p cannot know q received")
	}
}

// ackProtocol is a two-process protocol where q acknowledges p's message:
// q may send the ack only after receiving "m", so receiving the ack tells
// p that q received — the conditioning that free systems lack.
type ackProtocol struct{}

var _ universe.Protocol = ackProtocol{}

func (ackProtocol) Procs() []trace.ProcID { return []trace.ProcID{"p", "q"} }

func (ackProtocol) Init(p trace.ProcID) string {
	if p == "p" {
		return "init"
	}
	return "wait"
}

func (ackProtocol) Steps(p trace.ProcID, state string) []universe.Action {
	switch {
	case p == "p" && state == "init":
		return []universe.Action{{Kind: trace.KindSend, To: "q", Tag: "m"}}
	case p == "q" && state == "got":
		return []universe.Action{{Kind: trace.KindSend, To: "p", Tag: "ack"}}
	default:
		return nil
	}
}

func (ackProtocol) AfterStep(p trace.ProcID, state string, _ universe.Action) string {
	if p == "p" {
		return "sent"
	}
	return "acked"
}

func (ackProtocol) Deliver(p trace.ProcID, state string, _ trace.ProcID, tag string) (string, bool) {
	if p == "q" && tag == "m" {
		return "got", true
	}
	if p == "p" && tag == "ack" {
		return state + "+ack", true
	}
	return state, false
}

func ackUniverse(t testing.TB) *universe.Universe {
	u, err := universe.EnumerateWith(ackProtocol{}, universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestTwoLevelKnowledgeAfterAck(t *testing.T) {
	u := ackUniverse(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	y := trace.NewBuilder().
		Send("p", "q", "m").
		Receive("q", "p").
		Send("q", "p", "ack").
		Receive("p", "q").
		MustBuild()
	if !e.MustHolds(Knows(ps("p"), Knows(ps("q"), b)), y) {
		t.Errorf("after the ack, p must know q knows b")
	}
	// Three levels fail: q does not know its ack arrived.
	if e.MustHolds(Knows(ps("q"), Knows(ps("p"), Knows(ps("q"), b))), y) {
		t.Errorf("q cannot know the ack arrived")
	}
}

func TestTwoLevelKnowledgeNeedsConditioning(t *testing.T) {
	// The same event sequence in the *free* universe does not give p
	// two-level knowledge: q might have sent spontaneously.
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	y := trace.NewBuilder().
		Send("p", "q", "m").
		Receive("q", "p").
		Send("q", "p", "m").
		Receive("p", "q").
		MustBuild()
	if e.MustHolds(Knows(ps("p"), Knows(ps("q"), b)), y) {
		t.Errorf("in a free system the reply is not an ack: p must not know q knows b")
	}
}

func TestGroupKnowledge(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	x := trace.NewBuilder().Send("p", "q", "m").MustBuild()
	// {p,q} jointly know b (fact 3: monotone in the process set).
	if !e.MustHolds(Knows(ps("p", "q"), b), x) {
		t.Errorf("the group containing p must know b")
	}
}

func TestHoldsRejectsNonMember(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	foreign := trace.NewBuilder().Internal("zz", "x").MustBuild()
	if _, err := e.Holds(True, foreign); err == nil {
		t.Fatalf("expected error for non-member")
	}
}

func TestKnowledgeFactsOnPingPong(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	b2 := NewAtom(ReceivedTag("q", "m"))
	cases := []struct{ p, q trace.ProcSet }{
		{ps("p"), ps("q")},
		{ps("q"), ps("p")},
		{ps("p", "q"), ps("p")},
		{ps(), ps("p")},
	}
	for _, c := range cases {
		if err := CheckKnowledgeFacts(e, c.p, c.q, b, b2); err != nil {
			t.Errorf("P=%v Q=%v: %v", c.p, c.q, err)
		}
	}
}

func TestLocalPredicates(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	sent := NewAtom(SentTag("p", "m"))
	recv := NewAtom(ReceivedTag("q", "m"))
	if !e.LocalTo(sent, ps("p")) {
		t.Errorf("sent(p) must be local to p")
	}
	if e.LocalTo(sent, ps("q")) {
		t.Errorf("sent(p) must not be local to q")
	}
	if !e.LocalTo(recv, ps("q")) {
		t.Errorf("received(q) must be local to q")
	}
	if !e.LocalTo(sent, ps("p", "q")) {
		t.Errorf("locality is monotone in the process set")
	}
}

func TestLocalFactsOnPingPong(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	formulas := []Formula{
		NewAtom(SentTag("p", "m")),
		NewAtom(ReceivedTag("q", "m")),
		True,
	}
	pairs := []struct{ p, q trace.ProcSet }{
		{ps("p"), ps("q")},
		{ps("q"), ps("p")},
		{ps("p"), ps("p", "q")},
	}
	for _, b := range formulas {
		for _, c := range pairs {
			if err := CheckLocalFacts(e, c.p, c.q, b); err != nil {
				t.Errorf("b=%v P=%v Q=%v: %v", b, c.p, c.q, err)
			}
		}
	}
}

func TestLemma3DisjointLocalConstant(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	// True is local to both p and q (disjoint) and indeed constant.
	if !e.LocalTo(True, ps("p")) || !e.LocalTo(True, ps("q")) {
		t.Fatalf("constants must be local to everything")
	}
	if !e.IsConstant(True) {
		t.Fatalf("True must be constant")
	}
	// A non-constant predicate must not be local to two disjoint sets.
	b := NewAtom(SentTag("p", "m"))
	if e.IsConstant(b) {
		t.Fatalf("test needs non-constant b")
	}
	if e.LocalTo(b, ps("p")) && e.LocalTo(b, ps("q")) {
		t.Fatalf("lemma 3 violated")
	}
}

func TestCommonKnowledgeConstancy(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	for _, b := range []Formula{
		NewAtom(SentTag("p", "m")),
		NewAtom(ReceivedTag("q", "m")),
		True,
		False,
	} {
		if err := CheckCommonKnowledgeConstant(e, b); err != nil {
			t.Errorf("b=%v: %v", b, err)
		}
	}
	// CK(True) is true everywhere; CK of a contingent fact is false
	// everywhere (it cannot be gained).
	if !e.Valid(Common(True)) {
		t.Errorf("CK(true) must hold")
	}
	if !e.Valid(Not(Common(NewAtom(SentTag("p", "m"))))) {
		t.Errorf("CK of a contingent fact must be constant false")
	}
}

func TestIdenticalKnowledgeCorollary(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	for _, b := range []Formula{NewAtom(SentTag("p", "m")), True, False} {
		if err := CheckIdenticalKnowledgeConstant(e, ps("p"), ps("q"), b); err != nil {
			t.Errorf("b=%v: %v", b, err)
		}
	}
}

func TestTheorem4OnPingPong(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	seqs := [][]trace.ProcSet{
		{ps("p")},
		{ps("q")},
		{ps("p"), ps("q")},
		{ps("q"), ps("p")},
		{ps("p"), ps("q"), ps("p")},
	}
	for _, sets := range seqs {
		st, err := CheckTheorem4(e, sets, b)
		if err != nil {
			t.Errorf("sets=%v: %v", sets, err)
		}
		if len(sets) == 1 && st.Instances == 0 {
			t.Errorf("sets=%v: no non-vacuous instances", sets)
		}
		if _, err := CheckTheorem4Negative(e, sets, b); err != nil {
			t.Errorf("negative corollary sets=%v: %v", sets, err)
		}
	}
}

func TestTheorem4OnAckProtocol(t *testing.T) {
	// Nested knowledge (p knows q knows b) is attainable here, so the
	// two-set instances are non-vacuous.
	u := ackUniverse(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	sets := []trace.ProcSet{ps("p"), ps("q")}
	st, err := CheckTheorem4(e, sets, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("expected non-vacuous nested instances")
	}
}

func TestLemma4OnPingPong(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	// b local to {p} = complement of {q}: q's knowledge of b obeys the
	// receive/send/internal laws.
	b := NewAtom(SentTag("p", "m"))
	st, err := CheckLemma4(e, ps("q"), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("no instances checked")
	}
	// Precondition violation: b is not local to the complement of {p}.
	if _, err := CheckLemma4(e, ps("p"), b); err == nil {
		t.Fatalf("expected precondition failure")
	}
}

func TestTheorem5KnowledgeGain(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	// One level: q gains knowledge of b; the chain <q> must be present.
	st, wits, err := CheckTheorem5(e, []trace.ProcSet{ps("q")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("vacuous")
	}
	// Every witness suffix must contain a receive by q (side condition:
	// b is local to p = complement of {q}).
	for _, w := range wits {
		if w.X.CountKind(ps("q"), trace.KindReceive) == w.Y.CountKind(ps("q"), trace.KindReceive) {
			t.Fatalf("gain witness without a receive by q")
		}
	}
}

func TestTheorem5TwoLevelGain(t *testing.T) {
	// Two levels on the ack protocol: p gains "q knows b"; the chain
	// <q p> (Pn … P1) must be present in the suffix.
	u := ackUniverse(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	st, _, err := CheckTheorem5(e, []trace.ProcSet{ps("p"), ps("q")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("vacuous")
	}
}

func TestTheorem6KnowledgeLoss(t *testing.T) {
	// In this message-monotone model, knowledge of a stable fact is
	// never lost, so theorem 6 should hold (vacuously or not).
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	for _, sets := range [][]trace.ProcSet{
		{ps("q")},
		{ps("p"), ps("q")},
	} {
		if _, err := CheckTheorem6(e, sets, b); err != nil {
			t.Errorf("sets=%v: %v", sets, err)
		}
	}
}

func TestTheorem6NonVacuousLoss(t *testing.T) {
	// Knowledge loss needs a predicate that can turn false: "no message
	// in flight" is known to q while nothing was sent, and q loses it —
	// wait, q never learns others' sends. Use b = ¬sent(q): q knows it
	// while it has not sent; q loses... q always knows its own sends.
	// Genuine loss: p knows "q has not received" while p has not sent;
	// after p sends... p still does not know whether q received. The
	// clean case: b = "p has sent no message". Initially q does not know
	// b is *stable*... Instead check loss of ¬received: P1 = {q},
	// b = ¬(q received) is local to q; q knows b, then after receiving,
	// ¬(q knows b): loss requires chain <q> — trivially present. Larger
	// content with two levels: p knows q knows ¬received(q) at null; at
	// y where q received, ¬(q knows b): chain <p q> must be in (null,y).
	u := pingPong(t)
	e := NewEvaluator(u)
	b := Not(NewAtom(ReceivedTag("q", "m")))
	sets := []trace.ProcSet{ps("p"), ps("q")}
	st, err := CheckTheorem6(e, sets, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("expected non-vacuous loss instances")
	}
}

func TestSureAndUnsure(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	// At null, q is unsure of b (b could become true or stay false).
	null := trace.Empty()
	if e.MustHolds(Sure(ps("q"), b), null) {
		t.Errorf("q must be unsure of p's future send")
	}
	if !e.MustHolds(Sure(ps("p"), b), null) {
		t.Errorf("p must be sure of its own send predicate")
	}
}

func TestEvalNaiveAgreesWithMemoized(t *testing.T) {
	u := pingPong(t)
	e := NewEvaluator(u)
	b := NewAtom(SentTag("p", "m"))
	formulas := []Formula{
		b,
		Knows(ps("q"), b),
		Knows(ps("p"), Knows(ps("q"), b)),
		Sure(ps("q"), b),
		And(b, Not(Knows(ps("q"), b))),
		Or(Knows(ps("p"), b), Knows(ps("q"), b)),
		Implies(Knows(ps("q"), b), b),
		Common(True),
	}
	for _, f := range formulas {
		for i := 0; i < u.Len(); i++ {
			if e.HoldsAt(f, i) != EvalNaive(u, f, i) {
				t.Fatalf("disagreement on %v at member %d", f, i)
			}
		}
	}
}

func TestFormulaStringAndKey(t *testing.T) {
	b := NewAtom(SentTag("p", "m"))
	f := Knows(ps("p"), Implies(b, Or(Not(b), And(True, False))))
	if f.Key() == "" || !strings.Contains(f.Key(), "K{p}") {
		t.Errorf("Key = %q", f.Key())
	}
	s := f.String()
	for _, frag := range []string{"knows", "⇒", "¬", "∧", "∨"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
	if Sure(ps("p"), b).String() == "" || Common(b).String() == "" {
		t.Errorf("empty renderings")
	}
	if True.Key() != "true" || False.Key() != "false" {
		t.Errorf("const keys wrong")
	}
}

func TestNestKnows(t *testing.T) {
	b := True
	f := NestKnows([]trace.ProcSet{ps("p"), ps("q")}, b)
	want := Knows(ps("p"), Knows(ps("q"), b))
	if f.Key() != want.Key() {
		t.Fatalf("NestKnows = %v", f)
	}
	if NestKnows(nil, b).Key() != b.Key() {
		t.Fatalf("empty nest must be identity")
	}
}

func TestAndOrEmpty(t *testing.T) {
	if And().Key() != True.Key() {
		t.Errorf("empty And must be true")
	}
	if Or().Key() != False.Key() {
		t.Errorf("empty Or must be false")
	}
}

func TestCheckWellFormed(t *testing.T) {
	u := pingPong(t)
	good := SentTag("p", "m")
	if err := CheckWellFormed(u, good); err != nil {
		t.Errorf("well-formed predicate rejected: %v", err)
	}
}

func TestStandardPredicates(t *testing.T) {
	c := trace.NewBuilder().
		Send("p", "q", "tok").
		Receive("q", "p").
		Internal("q", "work").
		MustBuild()
	cases := []struct {
		pred Predicate
		want bool
	}{
		{SentTag("p", "tok"), true},
		{SentTag("q", "tok"), false},
		{ReceivedTag("q", "tok"), true},
		{ReceivedTag("p", "tok"), false},
		{DidInternal("q", "work"), true},
		{DidInternal("q", "other"), false},
		{EventCountAtLeast(ps("p", "q"), 3), true},
		{EventCountAtLeast(ps("p"), 2), false},
		{NoMessagesInFlight(), true},
		{Constant(true), true},
		{Constant(false), false},
	}
	for _, tc := range cases {
		if got := tc.pred.Holds(c); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.pred.Name(), got, tc.want)
		}
	}
	inflight := trace.NewBuilder().Send("p", "q", "x").MustBuild()
	if NoMessagesInFlight().Holds(inflight) {
		t.Errorf("quiescent must fail with in-flight message")
	}
	// quiescent counts sends against receives; it must agree with the
	// in-flight list on every computation, dropped and duplicated
	// messages included.
	lossy := faults.Wrap(universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 2}),
		faults.Model{CrashAll: true, Drops: 1, Dups: 1})
	u := universe.MustEnumerateWith(lossy, universe.WithMaxEvents(5))
	for i := 0; i < u.Len(); i++ {
		if got, want := NoMessagesInFlight().Holds(u.At(i)), len(u.At(i).InFlight()) == 0; got != want {
			t.Fatalf("quiescent = %v at %v, in-flight list says %v", got, u.At(i), want)
		}
	}
}

func TestTokenAtPredicate(t *testing.T) {
	// Token starts at p; p passes to q.
	c0 := trace.Empty()
	c1 := trace.NewBuilder().Send("p", "q", "token").MustBuild()
	c2 := trace.FromComputation(c1).Receive("q", "p").MustBuild()
	atP := TokenAt("p", "p", "token")
	atQ := TokenAt("q", "p", "token")
	if !atP.Holds(c0) || atQ.Holds(c0) {
		t.Errorf("initially token at p only")
	}
	if atP.Holds(c1) || atQ.Holds(c1) {
		t.Errorf("token in flight: nobody holds it")
	}
	if atP.Holds(c2) || !atQ.Holds(c2) {
		t.Errorf("after receive, token at q only")
	}
}
