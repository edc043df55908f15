// Package tokenbus implements the paper's §4.1 example: a token bus — a
// linear sequence of processes passing a single token back and forth.
// Boundary processes have one neighbour, interior processes two; there is
// exactly one token, initially at the leftmost process.
//
// The system is one universe.Protocol, which serves both exhaustive
// enumeration and knowledge checking — the paper's claim is that when r
// holds the token,
//
//	r knows ((q knows ¬token@p) ∧ (s knows ¬token@t))
//
// for the five-process bus p,q,r,s,t — and long random walks
// (Simulate).
package tokenbus

import (
	"errors"
	"fmt"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// TokenTag tags every token-transfer message.
const TokenTag = "token"

// Bus describes a token bus over the given processes, left to right.
type Bus struct {
	procs []trace.ProcID
}

// New builds a bus; it requires at least two processes.
func New(procs ...trace.ProcID) (*Bus, error) {
	if len(procs) < 2 {
		return nil, fmt.Errorf("tokenbus: need at least 2 processes, got %d", len(procs))
	}
	seen := make(map[trace.ProcID]bool, len(procs))
	for _, p := range procs {
		if seen[p] {
			return nil, fmt.Errorf("tokenbus: duplicate process %s", p)
		}
		seen[p] = true
	}
	return &Bus{procs: append([]trace.ProcID(nil), procs...)}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(procs ...trace.ProcID) *Bus {
	b, err := New(procs...)
	if err != nil {
		panic(err)
	}
	return b
}

// Procs returns the bus processes, left to right.
func (b *Bus) Procs() []trace.ProcID { return append([]trace.ProcID(nil), b.procs...) }

// Leftmost returns the initial token holder.
func (b *Bus) Leftmost() trace.ProcID { return b.procs[0] }

// Neighbors returns the processes adjacent to p on the bus.
func (b *Bus) Neighbors(p trace.ProcID) []trace.ProcID {
	var out []trace.ProcID
	for i, q := range b.procs {
		if q != p {
			continue
		}
		if i > 0 {
			out = append(out, b.procs[i-1])
		}
		if i+1 < len(b.procs) {
			out = append(out, b.procs[i+1])
		}
	}
	return out
}

// TokenAt returns the predicate "p holds the token".
func (b *Bus) TokenAt(p trace.ProcID) knowledge.Predicate {
	return knowledge.TokenAt(p, b.Leftmost(), TokenTag)
}

// --- universe.Protocol implementation ---

const (
	stateHolding = "H"
	stateEmpty   = "N"
)

var _ universe.Protocol = (*Bus)(nil)

// Init gives the leftmost process the token.
func (b *Bus) Init(p trace.ProcID) string {
	if p == b.Leftmost() {
		return stateHolding
	}
	return stateEmpty
}

// Steps lets a holder pass the token to either neighbour.
func (b *Bus) Steps(p trace.ProcID, state string) []universe.Action {
	if state != stateHolding {
		return nil
	}
	var out []universe.Action
	for _, q := range b.Neighbors(p) {
		out = append(out, universe.Action{Kind: trace.KindSend, To: q, Tag: TokenTag})
	}
	return out
}

// AfterStep releases the token on send.
func (b *Bus) AfterStep(_ trace.ProcID, _ string, _ universe.Action) string {
	return stateEmpty
}

// Deliver accepts the token.
func (b *Bus) Deliver(_ trace.ProcID, _ string, _ trace.ProcID, tag string) (string, bool) {
	if tag != TokenTag {
		return "", false
	}
	return stateHolding, true
}

// Enumerate builds the universe of bus computations with at most
// maxEvents events.
func (b *Bus) Enumerate(maxEvents, capN int) (*universe.Universe, error) {
	return universe.EnumerateWith(b, universe.WithMaxEvents(maxEvents), universe.WithCap(capN))
}

// Simulate walks the bus for maxHops token transfers with the given seed
// (2·maxHops events: one send and one receive per hop) and returns the
// computation. maxHops must be positive.
func (b *Bus) Simulate(seed int64, maxHops int) (*trace.Computation, error) {
	if maxHops <= 0 {
		return nil, fmt.Errorf("tokenbus: maxHops %d must be positive", maxHops)
	}
	c, err := universe.Walk(b, universe.WalkConfig{Seed: seed, MaxEvents: 2 * maxHops})
	// The token never rests, so the walk ends at its budget.
	if err != nil && !errors.Is(err, universe.ErrEventBudget) {
		return nil, fmt.Errorf("tokenbus: %w", err)
	}
	return c, nil
}
