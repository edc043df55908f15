package hpl

import (
	"io"

	"hpl/internal/causality"
	"hpl/internal/knowledge"
	"hpl/internal/stateiso"
	"hpl/internal/trace"
)

// This file extends the facade with the causality substrate (happened-
// before, clocks, process chains, consistent cuts), trace interchange
// formats, the everyone-knows ladder, and the §6 state-abstraction
// generalization.

// --- Causality ---

type (
	// CausalGraph is the happened-before structure of an event sequence.
	CausalGraph = causality.Graph
	// VectorClock maps processes to event counts.
	VectorClock = causality.VectorClock
	// Cut is a subset of a computation's event positions.
	Cut = causality.Cut
)

// NewCausalGraph builds the happened-before graph of an event sequence.
func NewCausalGraph(events []Event) *CausalGraph { return causality.NewGraph(events) }

// CausalGraphOf builds the graph of a full computation.
func CausalGraphOf(c *Computation) *CausalGraph { return causality.FromComputation(c) }

// VectorClocks computes the vector clock of every event in the sequence.
func VectorClocks(events []Event) []VectorClock { return causality.VectorClocks(events) }

// LamportClocks computes scalar Lamport clocks for every event.
func LamportClocks(events []Event) []int { return causality.LamportClocks(events) }

// HasChainIn reports whether the suffix (x, z) contains the process
// chain <sets[0] … sets[n-1]>.
func HasChainIn(x, z *Computation, sets []ProcSet) (bool, error) {
	return causality.HasChainIn(x, z, sets)
}

// ExtractCut implements the paper's Observation 2: the subsequence of a
// computation induced by a consistent cut is itself a computation.
func ExtractCut(c *Computation, cut Cut) (*Computation, error) {
	return causality.Extract(c, cut)
}

// --- Trace interchange ---

// ParseTraceText reads the compact line format ("send p q tag" /
// "recv q p" / "internal p tag"); see the trace package for the grammar.
func ParseTraceText(r io.Reader) (*Computation, error) { return trace.ParseText(r) }

// --- Everyone-knows ladder ---

// Everyone builds E b: every process in procs knows b.
func Everyone(procs ProcSet, f Formula) Formula { return knowledge.Everyone(procs, f) }

// EveryoneK builds E^k b.
func EveryoneK(procs ProcSet, f Formula, k int) Formula {
	return knowledge.EveryoneK(procs, f, k)
}

// EveryoneDepth returns, per universe member, the largest k ≤ maxK with
// E^k f holding there (-1 when even f fails).
func EveryoneDepth(e *Evaluator, f Formula, maxK int) []int {
	return knowledge.EveryoneDepth(e, f, maxK)
}

// --- State-based isomorphism (§6 generalization) ---

type (
	// Abstraction maps per-process projections to state keys.
	Abstraction = stateiso.Abstraction
	// StateEvaluator evaluates knowledge under state-based isomorphism.
	StateEvaluator = stateiso.Evaluator
)

// NewAbstraction builds a named state abstraction.
func NewAbstraction(name string, fn func(ProcID, []Event) string) Abstraction {
	return stateiso.NewAbstraction(name, fn)
}

// FullHistoryAbstraction is the identity abstraction (state = whole
// projection); it recovers computation-based isomorphism exactly.
func FullHistoryAbstraction() Abstraction { return stateiso.FullHistory() }

// CountersAbstraction remembers only per-kind event counts.
func CountersAbstraction() Abstraction { return stateiso.Counters() }

// NewStateEvaluator builds a state-based knowledge evaluator. It panics
// on a symmetry quotient: abstract states do not follow renaming orbits.
func NewStateEvaluator(u *Universe, abs Abstraction) *StateEvaluator {
	return stateiso.NewEvaluator(u, abs)
}
