package universe

import (
	"context"

	"hpl/internal/obs"
)

// DefaultMaxEvents bounds computations when WithMaxEvents is not given.
// Protocols with unbounded runs (a token circulating forever) would
// otherwise never terminate, so the bound is deliberately conservative.
const DefaultMaxEvents = 8

// Progress is a snapshot of a running enumeration, delivered to the
// callback installed by WithProgress.
type Progress struct {
	// Explored counts distinct computations emitted so far.
	Explored int
	// Frontier counts computations emitted but not yet expanded,
	// including those at the event bound (an approximation while
	// workers are mid-level).
	Frontier int
}

// Option configures an enumeration started by EnumerateWith.
type Option func(*config)

type config struct {
	maxEvents   int
	capN        int
	parallelism int
	ctx         context.Context
	progress    func(Progress)
	// progressEvery is the number of emissions between progress
	// callbacks; tests shrink it to observe mid-run snapshots.
	progressEvery int
	// sym quotients the enumeration by a process-symmetry group; nil
	// (or a trivial group) enumerates the full universe.
	sym *Symmetry
	// commute keeps one member per [D]-class (WithCommutation).
	commute bool
	// trace accumulates per-phase build timings (WithTrace); nil —
	// the common case — records nothing, and the engine's global
	// phase metrics are fed either way.
	trace *obs.Trace
}

func defaultConfig() config {
	return config{
		maxEvents:     DefaultMaxEvents,
		capN:          0,
		parallelism:   1,
		ctx:           context.Background(),
		progressEvery: 1024,
	}
}

// WithMaxEvents bounds every computation to at most n events (including
// the empty computation and every prefix, since the search tree is
// rooted at null). n <= 0 yields the universe {null}.
func WithMaxEvents(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.maxEvents = n
	}
}

// WithCap fails the enumeration with ErrTooLarge when more than n
// distinct computations would be produced; n <= 0 disables the cap.
func WithCap(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.capN = n
	}
}

// WithParallelism runs the enumeration on n workers; n <= 1 is
// single-threaded. The resulting universe is identical (same members in
// the same level order, hence the same classes) for every n.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.parallelism = n
	}
}

// WithContext makes the enumeration cancellable: when ctx is cancelled
// or its deadline passes, EnumerateWith stops promptly and returns
// ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithProgress installs a progress callback, invoked periodically during
// enumeration and once at the end. The callback is serialized by the
// engine (never invoked concurrently), so it need not lock. It must not
// call back into the enumeration.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithSymmetry quotients the enumeration by the process-symmetry group
// g: only one canonical representative of each renaming orbit is
// emitted, with its orbit size recorded (Universe.OrbitSize), so the
// universe shrinks by up to Order(g) while weighted counts stay exact.
// The protocol must actually have the symmetry — equal Init within each
// class is checked at enumeration time, equivariance of
// Steps/AfterStep/Deliver is the caller's assertion (use
// InferSymmetry for protocols that declare their own). Formulas
// evaluated over the quotient must be symmetric; the knowledge layer
// rejects asymmetric ones with a structured error. A nil or trivial g
// is a no-op.
func WithSymmetry(g *Symmetry) Option {
	return func(c *config) {
		if g.Trivial() {
			g = nil
		}
		c.sym = g
	}
}

// WithCommutation enumerates the commutation quotient: one member per
// [D]-class, that is per partial order of events, instead of every
// interleaving of it. The member kept is the class's greedy
// linearization, which always places the available event of the
// lowest-indexed process (in Procs order); greedy linearizations are
// closed under prefixes, so the members still form a prefix tree in
// level order. Each member's weight (Universe.OrbitSize) is its class's
// number of linearizations, so weighted counts and FullSize are those
// of the full universe, and its Transitions list every class one event
// extends it to (Transitions.Successors). Only formulas that cannot
// tell [D]-equivalent computations apart may be evaluated over it; see
// knowledge.ValidateCommuting. The quotient cannot be extended,
// snapshotted or combined with WithSymmetry: each fails with
// ErrCommutationQuotient.
func WithCommutation() Option {
	return func(c *config) { c.commute = true }
}

// WithTrace attaches a trace that accumulates the enumeration's
// per-phase wall times (frontier expansion, column assembly, symmetry
// stabilizer filtering) and travels with the universe, so the lazy
// partition/transition builds and snapshot encodes it triggers later
// land in the same breakdown. The same trace may be shared across
// builds; phases accumulate. Overhead is a handful of timestamps per
// enumeration — per-node costs are batched into worker-local counters —
// so tracing is safe to leave on in production paths.
func WithTrace(tr *obs.Trace) Option {
	return func(c *config) { c.trace = tr }
}

// withProgressEvery tunes the callback interval; exported options keep
// the default, tests reach this directly.
func withProgressEvery(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.progressEvery = n
		}
	}
}
