package hpl

import (
	"sort"

	"hpl/internal/knowledge"
	"hpl/internal/logic"
	"hpl/internal/universe"
)

// Checker is a model-checking session: a Universe, a memoizing
// Evaluator over it, and a Vocabulary for the textual formula language,
// bundled behind one entrypoint that the tools and examples share.
//
//	ck, err := hpl.CheckProtocol(p, hpl.WithMaxEvents(8), hpl.WithParallelism(4))
//	...
//	rep, err := ck.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
//	fmt.Println(rep.Valid())
//
// A Checker is safe for concurrent use: concurrent queries evaluate in
// parallel, and the evaluator computes each distinct subformula once
// while its truth vector is resident, so reusing one session across many
// queries — from one goroutine or many — is much cheaper than
// re-creating it. The memo is never trimmed unless its owner asks
// (Evaluator.TrimMemo, as hpld's cache does). (Define is
// the exception: seed the vocabulary before sharing the session.)
type Checker struct {
	u     *Universe
	ev    *Evaluator
	vocab Vocabulary
}

// NewChecker builds a session over an already-enumerated universe. The
// predicates seed the vocabulary for Parse and ParseAndCheck; more can
// be added later with Define.
func NewChecker(u *Universe, preds ...Predicate) *Checker {
	return &Checker{
		u:     u,
		ev:    knowledge.NewEvaluator(u),
		vocab: logic.NewVocabulary(preds...),
	}
}

// CheckProtocol enumerates the protocol's universe under the given
// options (see WithMaxEvents, WithCap, WithParallelism, WithContext,
// WithProgress) and returns a session over it.
func CheckProtocol(p Protocol, opts ...EnumOption) (*Checker, error) {
	u, err := universe.EnumerateWith(p, opts...)
	if err != nil {
		return nil, err
	}
	return NewChecker(u), nil
}

// MustCheckProtocol is CheckProtocol for configurations known to
// succeed; it panics on error.
func MustCheckProtocol(p Protocol, opts ...EnumOption) *Checker {
	ck, err := CheckProtocol(p, opts...)
	if err != nil {
		panic(err)
	}
	return ck
}

// Define adds predicates to the session's vocabulary and returns the
// session, so construction chains:
//
//	ck := hpl.MustCheckProtocol(bus, hpl.WithMaxEvents(8)).
//		Define(bus.TokenAt("p"), bus.TokenAt("q"))
func (c *Checker) Define(preds ...Predicate) *Checker {
	for _, p := range preds {
		c.vocab[p.Name()] = p
	}
	return c
}

// Universe returns the session's quantification domain.
func (c *Checker) Universe() *Universe { return c.u }

// Evaluator returns the session's memoizing evaluator, for APIs that
// take one directly (EveryoneDepth, theorem harnesses).
func (c *Checker) Evaluator() *Evaluator { return c.ev }

// Atoms lists the vocabulary's atom names, sorted.
func (c *Checker) Atoms() []string {
	names := make([]string, 0, len(c.vocab))
	for name := range c.vocab {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Parse parses the textual formula syntax (e.g. `K{q} "sent(p,m)"`)
// against the session vocabulary.
func (c *Checker) Parse(input string) (Formula, error) {
	return logic.Parse(input, c.vocab)
}

// Holds evaluates f at computation x, which must be a member of the
// universe.
func (c *Checker) Holds(f Formula, x *Computation) (bool, error) {
	return c.ev.Holds(f, x)
}

// MustHolds is Holds for members; it panics when x is not a member.
func (c *Checker) MustHolds(f Formula, x *Computation) bool {
	return c.ev.MustHolds(f, x)
}

// HoldsAt evaluates f at the i-th member.
func (c *Checker) HoldsAt(f Formula, i int) bool { return c.ev.HoldsAt(f, i) }

// Valid reports whether f holds at every member of the universe.
func (c *Checker) Valid(f Formula) bool { return c.ev.Valid(f) }

// LocalTo reports whether f is local to P over the universe: P is sure
// of f at every member (§4.2).
func (c *Checker) LocalTo(f Formula, p ProcSet) bool { return c.ev.LocalTo(f, p) }

// ValidateSymmetric checks that f is evaluable over the session's
// universe: on a symmetry quotient (see WithSymmetry) every atom and
// every knowledge operator must be invariant under the quotient's
// group, or an *AsymmetryError describes the first offending part; on
// a commutation quotient (see WithCommutation) f must not read the
// interleaving, or an *InterleavingError does. On a full universe every
// formula validates. ParseAndCheck and
// ParseAndCheckTemporal run this automatically; Check and Valid do not
// (their signatures carry no error) and instead panic from the
// evaluation core on an asymmetric formula — validate first when the
// formula is not statically known to be symmetric.
func (c *Checker) ValidateSymmetric(f Formula) error {
	return c.ev.ValidateSymmetric(f)
}

// Report summarizes one formula checked over the whole universe.
type Report struct {
	// Formula is the checked formula.
	Formula Formula
	// Total is the universe size.
	Total int
	// Holding counts the members where the formula holds.
	Holding int
	// FirstFailure is the index of the first member where the formula
	// fails, or -1 when it is valid.
	FirstFailure int
	// FullTotal and FullHolding are Total and Holding re-expressed over
	// the full (unquotiented) universe: on a symmetry quotient each
	// member is weighted by its orbit size, and on a commutation
	// quotient by its class's number of interleavings, so the counts
	// compare directly with a full-universe run. FullHolding is summed per
	// weight class, one masked popcount of the truth vector per
	// distinct orbit size (see Evaluator.CountWeighted). On a full
	// universe they simply repeat Total and Holding.
	FullTotal   int64
	FullHolding int64
}

// Valid reports whether the formula held at every member.
func (r Report) Valid() bool { return r.FirstFailure < 0 }

// Check evaluates f at every member and summarizes the result. The
// evaluation is set-at-a-time: one truth vector over the whole
// universe, counted and scanned word-parallel. On a symmetry quotient
// f must be invariant under the quotient's group (the evaluation core
// panics with an *AsymmetryError otherwise — see ValidateSymmetric).
func (c *Checker) Check(f Formula) Report {
	holding, firstFailure, fullHolding := c.ev.WeightedSummary(f)
	return c.report(f, holding, firstFailure, fullHolding)
}

func (c *Checker) report(f Formula, holding, firstFailure int, fullHolding int64) Report {
	return Report{
		Formula:      f,
		Total:        c.u.Len(),
		Holding:      holding,
		FirstFailure: firstFailure,
		FullTotal:    c.u.FullSize(),
		FullHolding:  fullHolding,
	}
}

// TruthVector returns f's truth value at every member, in member order.
func (c *Checker) TruthVector(f Formula) []bool { return c.ev.TruthVector(f) }

// TemporalReport extends Report with the model-checking verdict at the
// initial state: a temporal property of the protocol ("q eventually
// learns b", "knowledge of b is stable") is asked at the null
// computation, where every behaviour of the system starts, while
// validity quantifies over all members as usual.
type TemporalReport struct {
	Report
	// Init is the member index of the null computation, or -1 when the
	// universe does not contain it (only possible for hand-built
	// universes; enumerated ones always start at null).
	Init int
	// AtInit reports whether the formula holds at the null computation;
	// false when Init is -1.
	AtInit bool
}

// CheckTemporal evaluates f — which may mix temporal operators
// (EX/EF/AG/EU/Once/…) with epistemic ones — over the universe's
// prefix-extension transition graph and reports both the verdict at the
// initial (null) computation and the usual whole-universe summary. On
// the prefix-closed universes produced by enumeration, "AG f holds at
// init" and "f is valid" coincide; the temporal phrasing additionally
// supports reachability (EF), inevitability (AF/AU) and past-looking
// (Once/Hist) queries that validity alone cannot express.
func (c *Checker) CheckTemporal(f Formula) TemporalReport {
	init := c.u.Initial()
	holding, firstFailure, fullHolding, atInit := c.ev.WeightedSummaryAt(f, init)
	return TemporalReport{Report: c.report(f, holding, firstFailure, fullHolding), Init: init, AtInit: atInit}
}

// ParseAndCheckTemporal parses the textual formula against the session
// vocabulary and checks it as a temporal property (see CheckTemporal).
func (c *Checker) ParseAndCheckTemporal(input string) (TemporalReport, error) {
	f, err := c.Parse(input)
	if err != nil {
		return TemporalReport{}, err
	}
	if err := c.ev.ValidateSymmetric(f); err != nil {
		return TemporalReport{}, err
	}
	return c.CheckTemporal(f), nil
}

// ParseAndCheck parses the textual formula against the session
// vocabulary and checks it over the whole universe.
func (c *Checker) ParseAndCheck(input string) (Report, error) {
	f, err := c.Parse(input)
	if err != nil {
		return Report{}, err
	}
	if err := c.ev.ValidateSymmetric(f); err != nil {
		return Report{}, err
	}
	return c.Check(f), nil
}
