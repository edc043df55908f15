// Package tracker models a process q owning a boolean local predicate
// (the parity of its "flip" events) and a process p trying to track it
// through notification messages. It is the substrate for the paper's §5
// tracking impossibility: p must be unsure of the predicate whenever it
// is undergoing change, and q can only change it when q knows p is
// unsure.
//
// The protocol alternates flips and notifications on q (a flip must be
// notified before the next flip), which keeps the universe small while
// leaving the delivery of notifications arbitrarily delayed — the source
// of p's unavoidable uncertainty.
package tracker

import (
	"fmt"
	"strconv"
	"strings"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Tags.
const (
	TagFlip   = "flip"
	TagNotify = "note"
)

// System is the two-process tracker system.
type System struct {
	Owner   trace.ProcID // q: owns the bit
	Tracker trace.ProcID // p: tracks it
	// MaxFlips bounds the owner's flips so the universe is finite.
	MaxFlips int
}

// New builds the system.
func New(owner, tracker trace.ProcID, maxFlips int) (*System, error) {
	if owner == tracker {
		return nil, fmt.Errorf("tracker: owner and tracker must differ")
	}
	if maxFlips < 1 {
		return nil, fmt.Errorf("tracker: need at least one flip")
	}
	return &System{Owner: owner, Tracker: tracker, MaxFlips: maxFlips}, nil
}

// Bit returns the tracked predicate: the parity of the owner's flip
// events (false initially). It is local to the owner.
func (s *System) Bit() knowledge.Predicate {
	owner := s.Owner
	return knowledge.NewCount(fmt.Sprintf("bit@%s", owner),
		func(e trace.Event) int32 {
			if e.Proc == owner && e.Kind == trace.KindInternal && e.Tag == TagFlip {
				return 1
			}
			return 0
		},
		func(sum int32) bool { return sum%2 == 1 },
	).FixedOn(owner)
}

// --- universe.Protocol ---

var _ universe.Protocol = (*System)(nil)

// Procs returns owner and tracker.
func (s *System) Procs() []trace.ProcID { return []trace.ProcID{s.Owner, s.Tracker} }

// States: owner "idle:<flips>" (may flip) or "dirty:<flips>" (must
// notify); tracker "t".
func (s *System) Init(p trace.ProcID) string {
	if p == s.Owner {
		return "idle:0"
	}
	return "t"
}

func ownerState(state string) (flips int, dirty, ok bool) {
	switch {
	case strings.HasPrefix(state, "idle:"):
		n, err := strconv.Atoi(strings.TrimPrefix(state, "idle:"))
		return n, false, err == nil
	case strings.HasPrefix(state, "dirty:"):
		n, err := strconv.Atoi(strings.TrimPrefix(state, "dirty:"))
		return n, true, err == nil
	default:
		return 0, false, false
	}
}

// Steps: idle owner may flip (until budget); dirty owner must notify.
func (s *System) Steps(p trace.ProcID, state string) []universe.Action {
	if p != s.Owner {
		return nil
	}
	flips, dirty, ok := ownerState(state)
	if !ok {
		return nil
	}
	if dirty {
		return []universe.Action{{Kind: trace.KindSend, To: s.Tracker, Tag: noteTag(flips)}}
	}
	if flips < s.MaxFlips {
		return []universe.Action{{Kind: trace.KindInternal, Tag: TagFlip}}
	}
	return nil
}

func noteTag(flips int) string {
	return TagNotify + ":" + strconv.FormatBool(flips%2 == 1)
}

// AfterStep transitions the owner's state machine.
func (s *System) AfterStep(_ trace.ProcID, state string, a universe.Action) string {
	flips, dirty, _ := ownerState(state)
	if a.Tag == TagFlip {
		return "dirty:" + strconv.Itoa(flips+1)
	}
	if dirty {
		return "idle:" + strconv.Itoa(flips)
	}
	return state
}

// Deliver lets the tracker accept notifications.
func (s *System) Deliver(p trace.ProcID, state string, _ trace.ProcID, tag string) (string, bool) {
	if p == s.Tracker && strings.HasPrefix(tag, TagNotify) {
		return state, true
	}
	return state, false
}

// Enumerate builds the universe. SuggestedMaxEvents covers every flip,
// its notification, and the delivery.
func (s *System) Enumerate(maxEvents, capN int) (*universe.Universe, error) {
	return universe.EnumerateWith(s, universe.WithMaxEvents(maxEvents), universe.WithCap(capN))
}

// SuggestedMaxEvents is the bound under which every flip's consequences
// fit in the universe.
func (s *System) SuggestedMaxEvents() int { return 3 * s.MaxFlips }
