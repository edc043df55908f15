package experiments

import (
	"fmt"

	"hpl/internal/causality"
	"hpl/internal/knowledge"
	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/stateiso"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// This file holds experiments beyond the paper's explicit artifacts:
// the §6 state-based-isomorphism generalization ("most of the results
// are applicable") quantified, and the commit protocol showing knowledge
// transfer through an intermediary on a realistic workload.

// StateAbstraction quantifies the paper's §6 claim (EXP-EXT): which
// results survive when isomorphism is defined on process states instead
// of computations.
func StateAbstraction() (Table, error) {
	// Two distinguishable messages: coarse abstractions can then merge a
	// history that saw m1 with one that did not, which is what breaks
	// the event-semantics laws.
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
		SendTags: []string{"m1", "m2"},
	}), universe.WithMaxEvents(5), universe.WithCap(500000))
	if err != nil {
		return Table{}, err
	}
	concrete := knowledge.NewEvaluator(u)
	b := knowledge.NewAtom(knowledge.SentTag("p", "m1"))
	b2 := knowledge.NewAtom(knowledge.ReceivedTag("q", "m1"))
	t := Table{
		ID:     "EXP-EXT",
		Title:  "§6 generalization: state-based isomorphism (what survives abstraction)",
		Header: []string{"abstraction", "S5 facts (K2-K11)", "soundness (abs⇒concrete)", "lemma 4 (receive keeps knowledge)"},
	}
	for _, abs := range []stateiso.Abstraction{
		stateiso.FullHistory(),
		stateiso.Counters(),
		stateiso.LastEvent(),
	} {
		e := stateiso.NewEvaluator(u, abs)
		s5 := "hold"
		if err := knowledge.CheckKnowledgeFacts(e.Evaluator, ps("p"), ps("q"), b, b2); err != nil {
			s5 = "VIOLATED"
		}
		sound := "holds"
		for _, p := range []trace.ProcSet{ps("p"), ps("q")} {
			if err := stateiso.CheckAbstractionSound(e, concrete, p, b); err != nil {
				sound = "VIOLATED"
			}
		}
		lemma4 := "holds"
		if v := stateiso.FindLemma4Violation(e, ps("q"), b); v != nil {
			lemma4 = fmt.Sprintf("fails (counterexample at members %d→%d)", v.MemberX, v.MemberXE)
		}
		t.Rows = append(t.Rows, []string{abs.Name(), s5, sound, lemma4})
	}
	t.Notes = append(t.Notes,
		"the equivalence-based facts and soundness hold for every abstraction; the event-semantics laws (Theorem 3 / Lemma 4) are what lossy abstraction gives up — the paper's \"most of the results\" made precise")
	return t, nil
}

// KnowledgeLadder measures the everyone-knows depth attainable with R
// acknowledgement messages (EXP-E): each delivered message buys one rung
// (E^R at the full exchange) while common knowledge stays unattainable —
// the coordinated-attack phenomenon inside the paper's CK corollary.
func KnowledgeLadder() (Table, error) {
	t := Table{
		ID:     "EXP-E",
		Title:  "Everyone-knows ladder on acknowledgement chains vs. common knowledge",
		Header: []string{"messages R", "universe size", "max E^k depth", "common knowledge"},
	}
	for _, total := range []int{1, 2, 3, 4} {
		s := ackchain.MustNew("p", "q", total)
		u, err := s.Enumerate(0)
		if err != nil {
			return Table{}, err
		}
		e := knowledge.NewEvaluator(u)
		b := knowledge.NewAtom(s.Base())
		depths := knowledge.EveryoneDepth(e, b, total+2)
		best := -1
		for _, d := range depths {
			if d > best {
				best = d
			}
		}
		if best != total {
			return Table{}, fmt.Errorf("experiments: ladder depth %d with %d messages, want %d", best, total, total)
		}
		if !e.Valid(knowledge.Not(knowledge.Common(b))) {
			return Table{}, fmt.Errorf("experiments: CK attained with %d messages", total)
		}
		t.Rows = append(t.Rows, []string{itoa(total), itoa(u.Len()), itoa(best), "never"})
	}
	t.Notes = append(t.Notes, "each delivered acknowledgement buys exactly one E-rung; CK needs infinitely many (Lemma 3 corollary)")
	return t, nil
}

// Generalizations runs the §6 time/belief experiment (EXP-GEN): the
// paper's results hold for state-based isomorphism but NOT once time or
// belief enters; this table pins down exactly which law breaks where.
func Generalizations() (Table, error) {
	t := Table{
		ID:     "EXP-GEN",
		Title:  "§6 generalizations: what breaks with time and belief",
		Header: []string{"variant", "law probed", "outcome"},
	}

	// Time: lockstep rounds under asynchronous vs. timed isomorphism.
	procs := []trace.ProcID{"a", "b"}
	u, err := stateiso.Lockstep(procs, 2)
	if err != nil {
		return Table{}, err
	}
	b := stateiso.RoundDone(procs, 1)
	async := stateiso.NewEvaluator(u, stateiso.FullHistory())
	if got := stateiso.CommonKnowledgeGained(async, b); len(got) != 0 {
		return Table{}, fmt.Errorf("experiments: async CK gained — corollary violated")
	}
	t.Rows = append(t.Rows, []string{"asynchronous", "CK can be gained", "no (corollary to lemma 3 holds)"})
	timed := stateiso.NewTimedEvaluator(u, stateiso.FullHistory())
	gained := stateiso.CommonKnowledgeGained(timed, b)
	if len(gained) == 0 {
		return Table{}, fmt.Errorf("experiments: timed CK never gained")
	}
	t.Rows = append(t.Rows, []string{"with global time", "CK can be gained",
		fmt.Sprintf("YES — at %d/%d members (simultaneity observable)", len(gained), u.Len())})

	// Belief: optimistic plausibility loses veridicality.
	fu, err := freeUniverse(1, 5)
	if err != nil {
		return Table{}, err
	}
	quiescent := knowledge.NoMessagesInFlight()
	rep := knowledge.AnalyzeBelief(knowledge.NewEvaluator(fu), quiescent, ps("q"), knowledge.NewAtom(quiescent))
	if rep.VeridicalityHolds {
		return Table{}, fmt.Errorf("experiments: belief stayed veridical")
	}
	if !rep.IntrospectionHolds {
		return Table{}, fmt.Errorf("experiments: belief introspection broke")
	}
	t.Rows = append(t.Rows, []string{"belief (optimistic plausibility)", "knowledge ⇒ truth",
		fmt.Sprintf("FAILS at member %d (believes quiescence while a message is in flight)", rep.VeridicalityCounterIndex)})
	t.Rows = append(t.Rows, []string{"belief (optimistic plausibility)", "introspection (facts 10,11)", "holds"})
	t.Notes = append(t.Notes,
		"the paper (§6): results apply to state-based isomorphism but not to time or belief — this table shows the exact laws that break")
	return t, nil
}

// CommitKnowledge runs the commit-protocol experiment (EXP-CMT).
func CommitKnowledge() (Table, error) {
	s := commit.MustNew("c", "p1", "p2")
	u, err := s.Enumerate(s.SuggestedMaxEvents(), 0)
	if err != nil {
		return Table{}, err
	}
	e := knowledge.NewEvaluator(u)
	coord := ps("c")

	committed := knowledge.NewAtom(s.DecidedCommit())
	gotCommit := knowledge.NewAtom(s.GotCommit("p2"))
	p1Yes := knowledge.NewAtom(s.VotedYes("p1"))

	type claim struct {
		name string
		f    knowledge.Formula
	}
	claims := []claim{
		{"commit ⇒ c knows p1 voted yes", knowledge.Implies(committed, knowledge.Knows(coord, p1Yes))},
		{"commit ⇒ c knows p2 voted yes", knowledge.Implies(committed, knowledge.Knows(coord, knowledge.NewAtom(s.VotedYes("p2"))))},
		{"p2 got commit ⇒ p2 knows p1 voted yes", knowledge.Implies(gotCommit, knowledge.Knows(ps("p2"), p1Yes))},
		{"commit never common knowledge", knowledge.Not(knowledge.Common(committed))},
	}
	t := Table{
		ID:     "EXP-CMT",
		Title:  "Commit protocol: knowledge transfer through the coordinator",
		Header: []string{"claim", "valid over universe"},
	}
	for _, c := range claims {
		if !e.Valid(c.f) {
			return Table{}, fmt.Errorf("experiments: commit claim %q fails", c.name)
		}
		t.Rows = append(t.Rows, []string{c.name, "yes"})
	}

	// Count the gain instances whose chains route through the
	// coordinator.
	kb := knowledge.Knows(ps("p2"), p1Yes)
	routed, gains := 0, 0
	for yi := 0; yi < u.Len(); yi++ {
		y := u.At(yi)
		if !e.HoldsAt(kb, yi) {
			continue
		}
		for _, x := range y.Prefixes() {
			xi := u.IndexOf(x)
			if xi < 0 || e.HoldsAt(p1Yes, xi) {
				continue
			}
			gains++
			ok, err := causality.HasChainIn(x, y, []trace.ProcSet{ps("p1"), ps("c"), ps("p2")})
			if err != nil {
				return Table{}, err
			}
			if ok {
				routed++
			}
		}
	}
	if gains == 0 || routed != gains {
		return Table{}, fmt.Errorf("experiments: commit chains: %d/%d routed", routed, gains)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("universe: %d computations; %d knowledge-gain instances, all %d with chain <p1 c p2> (Theorem 5 through an intermediary)", u.Len(), gains, routed))
	return t, nil
}

// LargeBound re-runs the core theorem shapes at the bound the zero-copy
// enumeration engine opened up (EXP-LB): a three-process free system at
// MaxEvents=6, whose universe exceeds 100k computations. Before the
// structural-sharing rewrite the engine's replay-and-copy cost model
// made this bound impractical; the experiment pins that the knowledge
// and temporal layers agree with the paper on the larger universe, not
// just on the toy ones.
func LargeBound() (Table, error) {
	t := Table{
		ID:     "EXP-LB",
		Title:  "Theorem checks at the enlarged bound (3 procs, MaxEvents=6, >100k computations)",
		Header: []string{"max events", "universe size", "K{q}b -> b", "gain AG(K{q}b -> Once recv)", "loss never (Theorem 6 corollary)"},
	}
	for _, maxEvents := range []int{5, 6} {
		u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
			Procs:    []trace.ProcID{"p", "q", "r"},
			MaxSends: 2,
		}), universe.WithMaxEvents(maxEvents), universe.WithParallelism(2))
		if err != nil {
			return Table{}, err
		}
		e := knowledge.NewEvaluator(u)
		b := knowledge.NewAtom(knowledge.SentTag("p", "m"))
		recv := knowledge.NewAtom(knowledge.ReceivedTag("q", "m"))
		kq := knowledge.Knows(ps("q"), b)

		truth := "valid"
		if !e.Valid(knowledge.Implies(kq, b)) {
			return Table{}, fmt.Errorf("experiments: K{q}b -> b fails at maxEvents=%d", maxEvents)
		}
		gain := "valid"
		if !e.Valid(knowledge.AG(knowledge.Implies(kq, knowledge.Once(recv)))) {
			return Table{}, fmt.Errorf("experiments: gain fails at maxEvents=%d", maxEvents)
		}
		// sent(p,m) is stable, so by Theorem 6 q never loses knowledge
		// of it: AG(K{q}b -> AG K{q}b) must be valid.
		loss := "valid"
		if !e.Valid(knowledge.AG(knowledge.Implies(kq, knowledge.AG(kq)))) {
			return Table{}, fmt.Errorf("experiments: stability fails at maxEvents=%d", maxEvents)
		}
		t.Rows = append(t.Rows, []string{itoa(maxEvents), itoa(u.Len()), truth, gain, loss})
	}
	t.Notes = append(t.Notes,
		"enumeration, partitioning, and both epistemic and temporal evaluation at >100k members; BenchmarkEnumerateLarge measures the engine")
	return t, nil
}
