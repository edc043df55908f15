package commit

import (
	"testing"

	"hpl/internal/causality"
	"hpl/internal/knowledge"
	"hpl/internal/trace"
)

func ps(ids ...trace.ProcID) trace.ProcSet { return trace.NewProcSet(ids...) }

func twoPartySystem(t testing.TB) (*System, *knowledge.Evaluator) {
	t.Helper()
	s := MustNew("c", "p1", "p2")
	u, err := s.Enumerate(s.SuggestedMaxEvents(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, knowledge.NewEvaluator(u)
}

func TestNewValidation(t *testing.T) {
	if _, err := New("c"); err == nil {
		t.Errorf("no participants accepted")
	}
	if _, err := New("c", "c"); err == nil {
		t.Errorf("coordinator as participant accepted")
	}
	if _, err := New("c", "p", "p"); err == nil {
		t.Errorf("duplicate participant accepted")
	}
}

func TestValidityCommitImpliesAllYes(t *testing.T) {
	s, e := twoPartySystem(t)
	u := e.Universe()
	committed := s.DecidedCommit()
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		if !committed.Holds(c) {
			continue
		}
		for _, p := range s.Participants {
			if !s.VotedYes(p).Holds(c) {
				t.Fatalf("member %d: commit decided without %s voting yes", i, p)
			}
		}
	}
}

func TestCoordinatorKnowsVotesAtDecision(t *testing.T) {
	s, e := twoPartySystem(t)
	decided := knowledge.NewAtom(s.Decided())
	coord := ps(s.Coordinator)
	for _, p := range s.Participants {
		voted := knowledge.NewAtom(s.Voted(p))
		claim := knowledge.Implies(decided, knowledge.Knows(coord, voted))
		if !e.Valid(claim) {
			t.Fatalf("coordinator decided without knowing %s voted", p)
		}
	}
	// Specifically for commit: the coordinator knows each yes-vote.
	committed := knowledge.NewAtom(s.DecidedCommit())
	for _, p := range s.Participants {
		yes := knowledge.NewAtom(s.VotedYes(p))
		claim := knowledge.Implies(committed, knowledge.Knows(coord, yes))
		if !e.Valid(claim) {
			t.Fatalf("coordinator committed without knowing %s voted yes", p)
		}
	}
}

func TestParticipantLearnsOtherVoteThroughCoordinator(t *testing.T) {
	// The headline: when p2 receives "commit", p2 knows p1 voted yes —
	// p2 never exchanged a message with p1; the knowledge flowed along
	// the chain <p1, c, p2>.
	s, e := twoPartySystem(t)
	got := knowledge.NewAtom(s.GotCommit("p2"))
	p1Yes := knowledge.NewAtom(s.VotedYes("p1"))
	claim := knowledge.Implies(got, knowledge.Knows(ps("p2"), p1Yes))
	if !e.Valid(claim) {
		t.Fatalf("p2 received commit without learning p1's vote")
	}
	// Non-vacuity.
	u := e.Universe()
	some := false
	for i := 0; i < u.Len() && !some; i++ {
		some = e.HoldsAt(got, i)
	}
	if !some {
		t.Fatal("commit never received; enumeration too shallow")
	}
}

func TestKnowledgeGainHasInterProcessChain(t *testing.T) {
	// Wherever p2 gains knowledge of "p1 voted yes" from a state where
	// the vote had not happened, the suffix must contain the chain
	// <p1, p2> (which in this protocol routes through the coordinator).
	s, e := twoPartySystem(t)
	u := e.Universe()
	b := knowledge.NewAtom(s.VotedYes("p1"))
	kb := knowledge.Knows(ps("p2"), b)
	checked := 0
	for yi := 0; yi < u.Len(); yi++ {
		y := u.At(yi)
		if !e.HoldsAt(kb, yi) {
			continue
		}
		for _, x := range y.Prefixes() {
			xi := u.IndexOf(x)
			if xi < 0 {
				t.Fatal("universe not prefix closed")
			}
			if e.HoldsAt(b, xi) {
				continue // vote already cast; gain not "from scratch"
			}
			checked++
			ok, err := causality.HasChainIn(x, y, []trace.ProcSet{ps("p1"), ps("p2")})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("knowledge gained without chain <p1 p2> between %q and %q", x.Key(), y.Key())
			}
			// And the chain routes through the coordinator.
			ok, err = causality.HasChainIn(x, y, []trace.ProcSet{ps("p1"), ps("c"), ps("p2")})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("chain does not route through the coordinator")
			}
		}
	}
	if checked == 0 {
		t.Fatal("no gain instances checked")
	}
}

func TestCommitNeverCommonKnowledge(t *testing.T) {
	s, e := twoPartySystem(t)
	committed := knowledge.NewAtom(s.DecidedCommit())
	if err := knowledge.CheckCommonKnowledgeConstant(e, committed); err != nil {
		t.Fatal(err)
	}
	// Constant and, since commit is contingent, constant false.
	if !e.Valid(knowledge.Not(knowledge.Common(committed))) {
		t.Fatalf("contingent commit decision became common knowledge")
	}
}

func TestTheorem5OnCommitProtocol(t *testing.T) {
	s, e := twoPartySystem(t)
	b := knowledge.NewAtom(s.VotedYes("p1"))
	st, _, err := knowledge.CheckTheorem5(e, []trace.ProcSet{ps("p2")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Fatal("vacuous")
	}
	// Two-level: the coordinator knows p2 knows after... p2 never acks,
	// so the coordinator cannot know p2 knows — verify that boundary.
	u := e.Universe()
	twoLevel := knowledge.Knows(ps("c"), knowledge.Knows(ps("p2"), b))
	for i := 0; i < u.Len(); i++ {
		if e.HoldsAt(twoLevel, i) {
			t.Fatalf("coordinator cannot know p2 learned (no ack in this protocol)")
		}
	}
}

func TestAbortPath(t *testing.T) {
	s, e := twoPartySystem(t)
	u := e.Universe()
	// Some member has an abort decision received by p1.
	gotAbort := knowledge.ReceivedTag("p1", TagAbort)
	found := false
	for i := 0; i < u.Len() && !found; i++ {
		found = gotAbort.Holds(u.At(i))
	}
	if !found {
		t.Fatal("abort never delivered; enumeration too shallow")
	}
	// Validity: abort received implies someone voted no... NOT true in
	// general two-phase commit (coordinator could abort unilaterally),
	// but in THIS protocol the coordinator aborts only on a no vote.
	var votedNo []knowledge.Formula
	for _, p := range s.Participants {
		votedNo = append(votedNo, knowledge.NewAtom(knowledge.SentTag(p, TagVoteNo)))
	}
	claim := knowledge.Implies(knowledge.NewAtom(gotAbort), knowledge.Or(votedNo...))
	if !e.Valid(claim) {
		t.Fatalf("abort without a no vote")
	}
}

func TestUniverseSizeSane(t *testing.T) {
	_, e := twoPartySystem(t)
	n := e.Universe().Len()
	if n < 50 || n > 50000 {
		t.Fatalf("surprising universe size %d", n)
	}
	t.Logf("commit universe: %d computations", n)
}
