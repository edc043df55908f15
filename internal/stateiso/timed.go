package stateiso

import (
	"fmt"
	"strconv"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// This file implements the paper's §6 generalization 2: "we can
// introduce the notion of time into computations"; the paper notes its
// results do NOT survive this change. A timed evaluator makes global
// time observable: two computations are timed-isomorphic with respect to
// P when P's projections agree AND the computations have equal length
// (every process reads a global clock).
//
// The headline consequence, checked by the lockstep experiment: with
// time, common knowledge CAN be gained — the corollary to Lemma 3 fails
// — because simultaneity became observable. This is exactly the boundary
// Halpern & Moses draw and the reason the paper's CK corollary is
// specific to asynchronous systems.

// NewTimedEvaluator builds an evaluator whose isomorphism classes also
// require equal computation length (global time), composed with the
// given per-process abstraction: every process's label is its abstract
// state together with the member's length, so equal length is a
// prerequisite for any class membership.
func NewTimedEvaluator(u *universe.Universe, abs Abstraction) *Evaluator {
	return newEvaluator(u, NewAbstraction("timed("+abs.Name()+")", abs.fn), true)
}

// Lockstep builds the universe of n processes executing rounds
// internal events in lockstep: every process performs its round-k event
// (tagged "r<k>") before any process starts round k+1, but events within
// a round interleave arbitrarily.
func Lockstep(procs []trace.ProcID, rounds int) (*universe.Universe, error) {
	if len(procs) == 0 || rounds < 1 {
		return nil, fmt.Errorf("stateiso: lockstep needs processes and rounds")
	}
	var comps []*trace.Computation
	seen := make(map[string]bool)

	var extend func(b *trace.Builder, round int, remaining []trace.ProcID)
	extend = func(b *trace.Builder, round int, remaining []trace.ProcID) {
		c := b.MustSnapshot()
		if !seen[c.Key()] {
			seen[c.Key()] = true
			comps = append(comps, c)
		}
		if len(remaining) == 0 {
			if round == rounds {
				return
			}
			extend(b, round+1, procs)
			return
		}
		for i, p := range remaining {
			nb := trace.FromComputation(c)
			nb.Internal(p, "r"+strconv.Itoa(round))
			rest := make([]trace.ProcID, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			extend(nb, round, rest)
		}
	}
	b := trace.NewBuilder()
	extend(b, 1, procs)
	return universe.New(comps, trace.NewProcSet(procs...)), nil
}

// RoundDone returns the formula "every process has completed round k"
// in a lockstep system: the conjunction, over the processes, of the
// history count "performed internal event r<k>".
func RoundDone(procs []trace.ProcID, k int) knowledge.Formula {
	done := make([]knowledge.Formula, len(procs))
	for i, p := range procs {
		done[i] = knowledge.NewAtom(knowledge.DidInternal(p, "r"+strconv.Itoa(k)))
	}
	return knowledge.And(done...)
}

// CommonKnowledgeGained reports the members (indexes) at which common
// knowledge of f holds under the evaluator — used to contrast the timed
// and untimed relations on the same universe.
func CommonKnowledgeGained(e *Evaluator, f knowledge.Formula) []int {
	var out []int
	for i, ck := range e.TruthVector(knowledge.Common(f)) {
		if ck {
			out = append(out, i)
		}
	}
	return out
}
