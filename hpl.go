// Package hpl is a Go implementation of Chandy & Misra's "How Processes
// Learn" (PODC 1985): the event/trace model of asynchronous
// message-passing computation, isomorphism between computations with
// respect to process sets, process chains (happened-before), fusion of
// computations, and knowledge defined extensionally from isomorphism —
// together with exhaustive model checkers for every theorem in the paper
// and, for its §5 applications (tracking, failure detection, termination
// detection), harnesses that take random walks of the same protocol
// definitions the model checkers enumerate.
//
// # Quick start
//
//	// Build a computation: p sends to q, q receives.
//	c := hpl.NewBuilder().Send("p", "q", "m").Receive("q", "p").MustBuild()
//
//	// Open a checking session: enumerate every computation of a small
//	// system (in parallel, cancellable via WithContext) and ask an
//	// epistemic question.
//	ck, err := hpl.CheckProtocol(hpl.NewFree(hpl.FreeConfig{
//	    Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1,
//	}), hpl.WithMaxEvents(4), hpl.WithParallelism(4))
//	if err != nil { ... }
//	b := hpl.NewAtom(hpl.SentTag("p", "m"))
//	knows := ck.MustHolds(hpl.Knows(hpl.NewProcSet("q"), b), c) // true
//
//	// The same question in the textual formula language.
//	ck.Define(hpl.SentTag("p", "m"))
//	rep, err := ck.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
//	valid := rep.Valid() // true: knowledge implies truth
//
//	// Temporal questions run over the prefix-extension transition
//	// graph: the gain theorem says q learns b only after the message
//	// arrives, checkable as one temporal validity.
//	ck.Define(hpl.ReceivedTag("q", "m"))
//	trep, err := ck.ParseAndCheckTemporal(
//	    `AG (K{q} "sent(p,m)" -> Once "received(q,m)")`)
//	holds := trep.AtInit // true
//
// The facade re-exports the stable core of the internal packages; the
// experiment harnesses live in cmd/hpl-experiments and the runnable
// examples in examples/.
package hpl

import (
	"context"
	"io"

	"hpl/internal/diagram"
	"hpl/internal/fusion"
	"hpl/internal/iso"
	"hpl/internal/knowledge"
	"hpl/internal/logic"
	"hpl/internal/obs"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// --- Model (package trace) ---

// Core model types.
type (
	// ProcID identifies a process.
	ProcID = trace.ProcID
	// ProcSet is an immutable set of processes.
	ProcSet = trace.ProcSet
	// Event is a send, receive, or internal event on one process.
	Event = trace.Event
	// Kind classifies events.
	Kind = trace.Kind
	// MsgID identifies a message.
	MsgID = trace.MsgID
	// EventID identifies an event within a computation.
	EventID = trace.EventID
	// Computation is a validated system computation.
	Computation = trace.Computation
	// Builder incrementally constructs computations.
	Builder = trace.Builder
)

// Event kinds.
const (
	KindInternal = trace.KindInternal
	KindSend     = trace.KindSend
)

// NewProcSet builds a process set.
func NewProcSet(ids ...ProcID) ProcSet { return trace.NewProcSet(ids...) }

// Singleton returns {p}.
func Singleton(p ProcID) ProcSet { return trace.Singleton(p) }

// Empty returns the empty computation (the paper's "null").
func Empty() *Computation { return trace.Empty() }

// NewComputation validates an event sequence as a system computation.
func NewComputation(events []Event) (*Computation, error) { return trace.NewComputation(events) }

// NewBuilder returns an empty computation builder.
func NewBuilder() *Builder { return trace.NewBuilder() }

// FromComputation returns a builder that extends c.
func FromComputation(c *Computation) *Builder { return trace.FromComputation(c) }

// --- Universes (package universe) ---

type (
	// Universe is an exhaustively enumerated, indexed set of
	// computations of one system — the quantification domain for
	// knowledge.
	Universe = universe.Universe
	// Protocol describes a system as per-process state machines for
	// enumeration.
	Protocol = universe.Protocol
	// Action is a spontaneous protocol step.
	Action = universe.Action
	// FreeConfig parameterizes the unconstrained reference system.
	FreeConfig = universe.FreeConfig
)

// NewUniverse builds a universe from computations with D = all.
func NewUniverse(comps []*Computation, all ProcSet) *Universe { return universe.New(comps, all) }

// NewFree returns the Protocol of the free system described by cfg: the
// least-constrained system of the model, in which every process may
// send bounded numbers of messages, perform bounded internal events,
// and receive whatever is in flight.
func NewFree(cfg FreeConfig) Protocol { return universe.NewFree(cfg) }

// Enumeration options (see EnumerateWith and CheckProtocol).
type (
	// EnumOption configures an enumeration.
	EnumOption = universe.Option
	// EnumProgress is a snapshot of a running enumeration.
	EnumProgress = universe.Progress
)

// ErrUniverseTooLarge reports an enumeration that exceeded its WithCap
// bound.
var ErrUniverseTooLarge = universe.ErrTooLarge

// WithMaxEvents bounds every enumerated computation to at most n events.
func WithMaxEvents(n int) EnumOption { return universe.WithMaxEvents(n) }

// WithCap fails the enumeration with ErrUniverseTooLarge when more than
// n distinct computations would be produced; n <= 0 disables the cap.
func WithCap(n int) EnumOption { return universe.WithCap(n) }

// WithParallelism enumerates on n workers; the resulting universe is
// identical for every n.
func WithParallelism(n int) EnumOption { return universe.WithParallelism(n) }

// WithContext makes the enumeration cancellable: when ctx ends, the
// enumeration stops promptly and returns ctx.Err().
func WithContext(ctx context.Context) EnumOption { return universe.WithContext(ctx) }

// WithProgress installs a progress callback (serialized by the engine).
func WithProgress(fn func(EnumProgress)) EnumOption { return universe.WithProgress(fn) }

// Trace accumulates named per-phase wall times for a build (frontier
// expansion, column assembly, partition/transition construction,
// snapshot encode, symmetry filtering). Attach one with WithTrace and
// print Trace.String for the breakdown (`mck -trace` does exactly
// this). A nil *Trace is valid everywhere and records nothing.
type Trace = obs.Trace

// TracePhase is one accumulated phase of a Trace.
type TracePhase = obs.PhaseStat

// NewTrace returns an empty build trace for WithTrace.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace attaches tr to the enumeration: the engine's phases land in
// it, and it rides on the resulting universe so later lazily built
// structures (partition tables, the transition graph, snapshot encodes)
// join the same breakdown. Cheap enough to leave on in production; the
// same data feeds the process-wide /metrics exposition either way.
func WithTrace(tr *Trace) EnumOption { return universe.WithTrace(tr) }

// --- Symmetry reduction ---

// Symmetry is a group of process renamings a protocol is invariant
// under, declared as classes of interchangeable processes. Enumerating
// WithSymmetry keeps one canonical representative per renaming orbit —
// a quotient universe — with each member's orbit size recorded, so
// symmetric questions cost a fraction of the full universe.
type Symmetry = universe.Symmetry

// NewSymmetry declares the group generated by freely permuting each
// class of interchangeable processes. Classes must be disjoint;
// singleton classes are dropped. The group order is capped at 8!.
func NewSymmetry(classes ...[]ProcID) (*Symmetry, error) { return universe.NewSymmetry(classes...) }

// FullSymmetry declares all of the given processes interchangeable.
func FullSymmetry(procs ...ProcID) (*Symmetry, error) { return universe.FullSymmetry(procs...) }

// InferSymmetry returns the symmetry a protocol declares for itself
// (free systems declare all processes interchangeable), or nil.
func InferSymmetry(p Protocol) *Symmetry { return universe.InferSymmetry(p) }

// WithSymmetry enumerates the quotient of the universe under the group:
// only orbit-canonical computations are kept, with Universe.OrbitSize
// recording how many full-universe members each stands for and
// Universe.FullSize the total. The protocol must be invariant under the
// group (classes with differing Init are rejected; step-rule invariance
// is the caller's assertion). Quotients evaluate symmetric formulas
// only — see Checker.ValidateSymmetric and AsymmetryError.
func WithSymmetry(g *Symmetry) EnumOption { return universe.WithSymmetry(g) }

// AsymmetryError reports a formula rejected on a symmetry quotient
// because some part of it distinguishes processes the quotient's group
// identifies.
type AsymmetryError = knowledge.AsymmetryError

// --- Commutation quotient ---

// WithCommutation enumerates one member per [D]-class — per partial
// order of events — instead of every interleaving: the greedy
// linearization, weighted by its class's number of linearizations, so
// Report.FullTotal and FullHolding are full-universe counts. Only
// formulas that cannot tell interleavings apart may be evaluated over
// it (see ValidateCommuting); the quotient cannot be snapshotted,
// extended or combined with WithSymmetry.
func WithCommutation() EnumOption { return universe.WithCommutation() }

// ValidateCommuting checks that f can be answered on a commutation
// quotient: it uses no past operator except Once over a monotone atom.
// It reports an *InterleavingError otherwise.
func ValidateCommuting(f Formula) error { return knowledge.ValidateCommuting(f) }

// InterleavingError reports a formula rejected on a commutation quotient
// because some part of it may read the interleaving of concurrent
// events.
type InterleavingError = knowledge.InterleavingError

// EnumerateWith exhaustively generates the protocol's computations
// under the given options.
func EnumerateWith(p Protocol, opts ...EnumOption) (*Universe, error) {
	return universe.EnumerateWith(p, opts...)
}

// MustEnumerateWith is EnumerateWith for configurations known to
// succeed; it panics on error.
func MustEnumerateWith(p Protocol, opts ...EnumOption) *Universe {
	return universe.MustEnumerateWith(p, opts...)
}

// --- Incremental extension & snapshots ---

// ErrCannotExtend reports an ExtendUniverse call on a universe missing
// what incremental enumeration needs (a bound protocol, a known event
// bound, or frontier state).
var ErrCannotExtend = universe.ErrCannotExtend

// Snapshot decode errors, from most to least structural: not a
// snapshot at all, incompatible codec version, ends mid-structure,
// fails the checksum or decodes out of range.
var (
	ErrSnapshotFormat    = universe.ErrSnapshotFormat
	ErrSnapshotVersion   = universe.ErrSnapshotVersion
	ErrSnapshotTruncated = universe.ErrSnapshotTruncated
	ErrSnapshotCorrupt   = universe.ErrSnapshotCorrupt
)

// ExtendUniverse enumerates u's protocol at a larger event bound by
// re-seeding the engine from u's maximal members, enumerating only the
// new frontier. The result is byte-identical — member order, Partition
// tables, Transitions — to a from-scratch EnumerateWith at the larger
// bound. Options are interpreted as for EnumerateWith; u is unchanged.
func ExtendUniverse(u *Universe, opts ...EnumOption) (*Universe, error) {
	return universe.Extend(u, opts...)
}

// WriteSnapshot writes an enumerated universe — members, state table,
// built partition tables, transition graph — to w in the versioned,
// checksummed binary snapshot format, keyed by digest (normally a
// UniverseSpec digest).
func WriteSnapshot(w io.Writer, u *Universe, digest string) error {
	return universe.WriteSnapshot(w, u, digest)
}

// ReadSnapshot loads a universe and its digest key from r, in
// milliseconds rather than re-enumeration time. The loaded universe
// answers every query the original did; call Universe.BindProtocol to
// make it extendable again.
func ReadSnapshot(r io.Reader) (*Universe, string, error) {
	return universe.ReadSnapshot(r)
}

// --- Transitions (temporal substrate) ---

// Transitions is the prefix-extension transition graph of a universe:
// member i steps to member j exactly when j extends i by one event.
// Obtain it with Universe.Transitions(); the temporal operators below
// are interpreted over it.
type Transitions = universe.Transitions

// --- Isomorphism (package iso) ---

// Reachable returns the members related to x by the composite relation
// [sets[0] … sets[n-1]].
func Reachable(u *Universe, x *Computation, sets []ProcSet) []int {
	return iso.Reachable(u, x, sets)
}

// Related reports x [sets…] z over the universe.
func Related(u *Universe, x *Computation, sets []ProcSet, z *Computation) bool {
	return iso.Related(u, x, sets, z)
}

// LargestLabel returns the largest P ⊆ procs with x [P] y — the edge
// label of the isomorphism diagram.
func LargestLabel(x, y *Computation, procs ProcSet) ProcSet {
	return iso.LargestLabel(x, y, procs)
}

// --- Fusion (package fusion) ---

type (
	// Square is the commuting diagram of Lemma 1 (Figure 3-2).
	Square = fusion.Square
	// Fusion is the result of Theorem 2 (Figure 3-3).
	Fusion = fusion.Fusion
)

// Lemma1 fuses y and z over their common prefix x (see fusion.Lemma1).
func Lemma1(x, y, z *Computation, p, q, all ProcSet) (Square, error) {
	return fusion.Lemma1(x, y, z, p, q, all)
}

// Theorem2 fuses arbitrary extensions under chain-absence preconditions
// (see fusion.Theorem2).
func Theorem2(x, y, z *Computation, p, all ProcSet) (Fusion, error) {
	return fusion.Theorem2(x, y, z, p, all)
}

// --- Knowledge (package knowledge) ---

type (
	// Formula is an epistemic formula.
	Formula = knowledge.Formula
	// Predicate is a history count: a test on the sum of a per-event
	// weight over a computation's events.
	Predicate = knowledge.Predicate
	// Evaluator evaluates formulas over a universe.
	Evaluator = knowledge.Evaluator
)

// NewEvaluator builds an evaluator over the universe.
func NewEvaluator(u *Universe) *Evaluator { return knowledge.NewEvaluator(u) }

// NewCount builds the history-count predicate test(Σ weight): a weight
// per event and a test on the weights' sum over the computation's
// events. The evaluator folds it down the universe's prefix index for
// every member at once.
func NewCount(name string, weight func(Event) int32, test func(sum int32) bool) Predicate {
	return knowledge.NewCount(name, weight, test)
}

// Formula constructors.
var (
	// True and False are the constant formulas.
	True  = knowledge.True
	False = knowledge.False
)

// NewAtom lifts a predicate to a formula.
func NewAtom(p Predicate) Formula { return knowledge.NewAtom(p) }

// Not negates f.
func Not(f Formula) Formula { return knowledge.Not(f) }

// And conjoins formulas.
func And(fs ...Formula) Formula { return knowledge.And(fs...) }

// Or disjoins formulas.
func Or(fs ...Formula) Formula { return knowledge.Or(fs...) }

// Implies builds l → r.
func Implies(l, r Formula) Formula { return knowledge.Implies(l, r) }

// Knows builds (P knows f): f holds at every computation isomorphic to
// the current one with respect to P.
func Knows(p ProcSet, f Formula) Formula { return knowledge.Knows(p, f) }

// Sure builds (P sure f): P knows f or P knows ¬f.
func Sure(p ProcSet, f Formula) Formula { return knowledge.Sure(p, f) }

// Common builds common knowledge of f among all processes.
func Common(f Formula) Formula { return knowledge.Common(f) }

// Temporal operators, interpreted over the universe's prefix-extension
// transition graph (see Transitions): one step extends the computation
// by one event, so the future modalities quantify over extensions and
// the past ones over prefixes. They compose freely with the epistemic
// operators — AG(Knows(q,b) → Once(r)) is the paper's knowledge-gain
// theorem as a temporal validity. Check them with Checker.CheckTemporal.

// EX builds ∃◯f: some one-event extension satisfies f.
func EX(f Formula) Formula { return knowledge.EX(f) }

// AX builds ∀◯f: every one-event extension satisfies f.
func AX(f Formula) Formula { return knowledge.AX(f) }

// EF builds ∃◇f: some extension (including the present) satisfies f.
func EF(f Formula) Formula { return knowledge.EF(f) }

// AF builds ∀◇f: every maximal extension path satisfies f somewhere.
func AF(f Formula) Formula { return knowledge.AF(f) }

// EG builds ∃□f: some maximal extension path satisfies f throughout.
func EG(f Formula) Formula { return knowledge.EG(f) }

// AG builds ∀□f: f holds now and at every extension.
func AG(f Formula) Formula { return knowledge.AG(f) }

// EU builds E[l U r]: some extension path reaches r with l holding
// until then.
func EU(l, r Formula) Formula { return knowledge.EU(l, r) }

// AU builds A[l U r]: every maximal extension path reaches r with l
// holding until then.
func AU(l, r Formula) Formula { return knowledge.AU(l, r) }

// EY builds ∃●f: the one-event-shorter prefix satisfies f.
func EY(f Formula) Formula { return knowledge.EY(f) }

// AY builds ∀●f: f at the prefix, vacuously true at null.
func AY(f Formula) Formula { return knowledge.AY(f) }

// Once builds ◆f: f holds now or held at some prefix.
func Once(f Formula) Formula { return knowledge.Once(f) }

// Hist builds ■f: f holds now and held at every prefix.
func Hist(f Formula) Formula { return knowledge.Hist(f) }

// Standard predicates.

// SentTag holds when p has sent a message tagged tag.
func SentTag(p ProcID, tag string) Predicate { return knowledge.SentTag(p, tag) }

// ReceivedTag holds when p has received a message tagged tag.
func ReceivedTag(p ProcID, tag string) Predicate { return knowledge.ReceivedTag(p, tag) }

// DidInternal holds when p performed an internal event tagged tag.
func DidInternal(p ProcID, tag string) Predicate { return knowledge.DidInternal(p, tag) }

// TokenAt holds when p holds the token in a token-passing system.
func TokenAt(p, initialHolder ProcID, tag string) Predicate {
	return knowledge.TokenAt(p, initialHolder, tag)
}

// NoMessagesInFlight holds when every sent message has been received —
// quiescence, the termination detector's target fact.
func NoMessagesInFlight() Predicate { return knowledge.NoMessagesInFlight() }

// AnySentTag holds when some process has sent a message tagged tag —
// the renaming-invariant closure of SentTag, usable on any quotient.
func AnySentTag(tag string) Predicate { return knowledge.AnySentTag(tag) }

// AnyReceivedTag holds when some process has received a message tagged
// tag.
func AnyReceivedTag(tag string) Predicate { return knowledge.AnyReceivedTag(tag) }

// AnyDidInternal holds when some process performed an internal event
// tagged tag.
func AnyDidInternal(tag string) Predicate { return knowledge.AnyDidInternal(tag) }

// Crashed holds when p has crash-stopped under a fault model (see
// UniverseSpec.Faults and internal/faults).
func Crashed(p ProcID) Predicate { return knowledge.Crashed(p) }

// AnyCrashed holds when some process has crash-stopped; the
// renaming-invariant closure of Crashed.
func AnyCrashed() Predicate { return knowledge.AnyCrashed() }

// Dropped holds when the channel dropped a message tagged tag under a
// fault model.
func Dropped(tag string) Predicate { return knowledge.Dropped(tag) }

// Duplicated holds when the channel duplicated a message tagged tag
// under a fault model.
func Duplicated(tag string) Predicate { return knowledge.Duplicated(tag) }

// --- Formula language (package logic) ---

// Vocabulary resolves atom names for the textual formula language.
type Vocabulary = logic.Vocabulary

// NewVocabulary builds a vocabulary from predicates.
func NewVocabulary(preds ...Predicate) Vocabulary { return logic.NewVocabulary(preds...) }

// ParseFormula parses the textual syntax, e.g. `K{p} !K{q} "sent(p,m)"`.
func ParseFormula(input string, vocab Vocabulary) (Formula, error) {
	return logic.Parse(input, vocab)
}

// ErrFormulaTooDeep reports a formula whose operators nest more than
// logic.MaxNesting deep; ParseFormula and the Checker's parsing methods
// wrap it.
var ErrFormulaTooDeep = logic.ErrNesting

// PrintFormula renders a formula back into parseable syntax.
func PrintFormula(f Formula) string { return logic.Print(f) }

// --- Diagrams (package diagram) ---

type (
	// Diagram is a rendered isomorphism diagram (Figures 3-1…3-3).
	Diagram = diagram.Diagram
	// Vertex is a named computation in a diagram.
	Vertex = diagram.Vertex
)

// NewDiagram computes the isomorphism diagram of the named computations.
func NewDiagram(vertices []Vertex, procs ProcSet) *Diagram {
	return diagram.New(vertices, procs)
}
