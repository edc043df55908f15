// Package commit implements a single-coordinator atomic-commitment
// protocol (the voting phase and decision phase of two-phase commit) as
// a universe.Protocol, to exercise knowledge transfer through an
// intermediary:
//
//   - each participant votes yes or no by sending its vote to the
//     coordinator;
//   - once all votes are in, the coordinator decides commit (all yes) or
//     abort and sends the decision to every participant.
//
// The epistemics, model-checked in the tests and in EXP-CMT:
//
//   - when the coordinator decides, it knows every participant's vote;
//   - when a participant receives "commit", it knows every OTHER
//     participant voted yes — knowledge that travelled along the chain
//     <other, coordinator, this> (Theorems 1 and 5);
//   - "the decision is commit" never becomes common knowledge — the
//     corollary to Lemma 3 in action on a real protocol.
package commit

import (
	"fmt"
	"strconv"
	"strings"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Message tags.
const (
	TagVoteYes = "vote:yes"
	TagVoteNo  = "vote:no"
	TagCommit  = "decision:commit"
	TagAbort   = "decision:abort"
)

// System is a commit instance: one coordinator and n participants.
type System struct {
	Coordinator  trace.ProcID
	Participants []trace.ProcID
}

// New builds a system; participant names must be distinct from each
// other and the coordinator.
func New(coordinator trace.ProcID, participants ...trace.ProcID) (*System, error) {
	if len(participants) == 0 {
		return nil, fmt.Errorf("commit: need at least one participant")
	}
	seen := map[trace.ProcID]bool{coordinator: true}
	for _, p := range participants {
		if seen[p] {
			return nil, fmt.Errorf("commit: duplicate process %s", p)
		}
		seen[p] = true
	}
	return &System{
		Coordinator:  coordinator,
		Participants: append([]trace.ProcID(nil), participants...),
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(coordinator trace.ProcID, participants ...trace.ProcID) *System {
	s, err := New(coordinator, participants...)
	if err != nil {
		panic(err)
	}
	return s
}

// --- Predicates ---

// VotedYes holds when participant p has sent a yes vote.
func (s *System) VotedYes(p trace.ProcID) knowledge.Predicate {
	return knowledge.SentTag(p, TagVoteYes)
}

// Voted holds when participant p has sent any vote.
func (s *System) Voted(p trace.ProcID) knowledge.Predicate {
	return sentAny(fmt.Sprintf("voted(%s)", p), p, TagVoteYes, TagVoteNo)
}

// DecidedCommit holds when the coordinator has sent at least one commit
// decision.
func (s *System) DecidedCommit() knowledge.Predicate {
	return knowledge.SentTag(s.Coordinator, TagCommit)
}

// Decided holds when the coordinator has sent any decision.
func (s *System) Decided() knowledge.Predicate {
	return sentAny("decided", s.Coordinator, TagCommit, TagAbort)
}

// sentAny is the history count "p has sent a message tagged a or b".
func sentAny(name string, p trace.ProcID, a, b string) knowledge.Predicate {
	return knowledge.NewCount(name,
		func(e trace.Event) int32 {
			if e.Kind == trace.KindSend && e.Proc == p && (e.Tag == a || e.Tag == b) {
				return 1
			}
			return 0
		},
		func(sum int32) bool { return sum > 0 },
	).FixedOn(p)
}

// GotCommit holds when participant p has received the commit decision.
func (s *System) GotCommit(p trace.ProcID) knowledge.Predicate {
	return knowledge.ReceivedTag(p, TagCommit)
}

// --- universe.Protocol ---

var _ universe.Protocol = (*System)(nil)

// Procs lists coordinator then participants.
func (s *System) Procs() []trace.ProcID {
	return append([]trace.ProcID{s.Coordinator}, s.Participants...)
}

// Coordinator states: "w:<got>:<anyNo>" while collecting votes, then
// "d:<commit|abort>:<sent>" while distributing. Participant states: "u"
// (not voted), "s:<vote>", "f:<vote>:<decision>".
func (s *System) Init(p trace.ProcID) string {
	if p == s.Coordinator {
		return "w:0:0"
	}
	return "u"
}

// Steps: an unvoted participant may vote either way; a decided
// coordinator sends the decision to each participant in turn.
func (s *System) Steps(p trace.ProcID, state string) []universe.Action {
	if p != s.Coordinator {
		if state == "u" {
			return []universe.Action{
				{Kind: trace.KindSend, To: s.Coordinator, Tag: TagVoteYes},
				{Kind: trace.KindSend, To: s.Coordinator, Tag: TagVoteNo},
			}
		}
		return nil
	}
	if !strings.HasPrefix(state, "d:") {
		return nil
	}
	parts := strings.Split(state, ":")
	if len(parts) != 3 {
		return nil
	}
	sent, _ := strconv.Atoi(parts[2])
	if sent >= len(s.Participants) {
		return nil
	}
	tag := TagAbort
	if parts[1] == "commit" {
		tag = TagCommit
	}
	return []universe.Action{{Kind: trace.KindSend, To: s.Participants[sent], Tag: tag}}
}

// AfterStep advances the voter or the distributing coordinator.
func (s *System) AfterStep(p trace.ProcID, state string, a universe.Action) string {
	if p != s.Coordinator {
		if a.Tag == TagVoteYes {
			return "s:yes"
		}
		return "s:no"
	}
	parts := strings.Split(state, ":")
	sent, _ := strconv.Atoi(parts[2])
	return "d:" + parts[1] + ":" + strconv.Itoa(sent+1)
}

// Deliver: the coordinator absorbs votes (deciding when the last
// arrives); participants absorb decisions.
func (s *System) Deliver(p trace.ProcID, state string, _ trace.ProcID, tag string) (string, bool) {
	if p == s.Coordinator {
		if tag != TagVoteYes && tag != TagVoteNo {
			return state, false
		}
		parts := strings.Split(state, ":")
		if parts[0] != "w" {
			return state, false
		}
		got, _ := strconv.Atoi(parts[1])
		anyNo := parts[2] == "1" || tag == TagVoteNo
		got++
		if got == len(s.Participants) {
			if anyNo {
				return "d:abort:0", true
			}
			return "d:commit:0", true
		}
		no := "0"
		if anyNo {
			no = "1"
		}
		return "w:" + strconv.Itoa(got) + ":" + no, true
	}
	if tag != TagCommit && tag != TagAbort {
		return state, false
	}
	if !strings.HasPrefix(state, "s:") {
		return state, false
	}
	return "f:" + strings.TrimPrefix(state, "s:") + ":" + strings.TrimPrefix(tag, "decision:"), true
}

// Enumerate builds the universe of commit computations.
// SuggestedMaxEvents covers the full two rounds.
func (s *System) Enumerate(maxEvents, capN int) (*universe.Universe, error) {
	return universe.EnumerateWith(s, universe.WithMaxEvents(maxEvents), universe.WithCap(capN))
}

// SuggestedMaxEvents is one send and one receive per participant per
// round: 4·n events.
func (s *System) SuggestedMaxEvents() int { return 4 * len(s.Participants) }
