package universe

import (
	"errors"
	"fmt"
)

// ErrCannotExtend reports an Extend call on a universe that does not
// carry what incremental enumeration needs: a bound protocol, a known
// event bound, or the per-member state vectors of its frontier.
var ErrCannotExtend = errors.New("universe: cannot extend")

// Extend enumerates the protocol of u at a larger event bound by
// re-seeding the engine's frontier from u's maximal members instead of
// the null computation. A bound-n universe is complete below n — every
// member of length < n already has all of its children as members — so
// only the length-n members — u's last level — have unexplored
// extensions. Extend starts the engine from a copy of u's columns, with
// the interned local-state vectors recovered from the enumeration (or
// snapshot) that built u, and the ordinary worker pool expands that
// last level and appends the new ones. Levels are all the engine ever
// appends, so the result is byte-identical — member order, Partition
// tables, Transitions graph — to a from-scratch EnumerateWith at the
// larger bound; the differential tests in extend_test.go and
// route_test.go hold it to that.
//
// Options are interpreted exactly as for EnumerateWith against the
// target bound: WithMaxEvents names the new bound (it must be ≥ u's;
// equal returns u unchanged), WithCap bounds the total member count
// including the members of u, and WithParallelism sizes the pool for
// the new frontier only. u itself is never mutated, beyond growing the
// shared state-vector table.
//
// A commutation quotient cannot be extended, nor a full universe into
// one: both fail with ErrCannotExtend wrapping ErrCommutationQuotient.
func Extend(u *Universe, opts ...Option) (*Universe, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.commute || u.Commuting() {
		return nil, fmt.Errorf("%w: %w", ErrCannotExtend, ErrCommutationQuotient)
	}
	// Symmetry must agree between the seed and the extension: the seed's
	// members are orbit representatives only under its own group, so
	// extending under a different group (or quotienting a full seed)
	// would mix canonical forms. An extension without WithSymmetry
	// inherits the seed's group.
	if cfg.sym == nil {
		cfg.sym = u.sym
	} else if u.sym == nil {
		return nil, fmt.Errorf("%w: cannot quotient a full universe by %s; re-enumerate with WithSymmetry", ErrCannotExtend, cfg.sym.Key())
	} else if !cfg.sym.Equal(u.sym) {
		return nil, fmt.Errorf("%w: symmetry %s differs from the universe's %s", ErrCannotExtend, cfg.sym.Key(), u.sym.Key())
	}
	switch {
	case u.proto == nil:
		return nil, fmt.Errorf("%w: no protocol bound (hand-built universe, or snapshot load before BindProtocol)", ErrCannotExtend)
	case u.maxEvents < 0:
		return nil, fmt.Errorf("%w: event bound unknown", ErrCannotExtend)
	case u.states == nil || len(u.memberSV) != u.Len():
		return nil, fmt.Errorf("%w: no frontier state vectors", ErrCannotExtend)
	case cfg.maxEvents < u.maxEvents:
		return nil, fmt.Errorf("%w: target bound %d below current bound %d", ErrCannotExtend, cfg.maxEvents, u.maxEvents)
	case cfg.maxEvents == u.maxEvents:
		return u, nil
	}
	return enumerate(u.proto, cfg, &seedState{base: u, states: u.states, svs: u.memberSV})
}
