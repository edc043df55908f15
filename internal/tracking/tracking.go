// Package tracking implements the paper's §5 tracking results over the
// tracker protocol:
//
//   - impossibility of exact tracking: at every computation from which
//     the owner's bit is about to change, the tracker is unsure of the
//     bit's value (CheckUnsureDuringChange);
//   - the necessary condition for change: at every such point the owner
//     knows that the tracker is unsure (CheckChangeRequiresKnowledge);
//   - a quantitative face of the same phenomenon: on a random walk of the
//     protocol, the interval between a flip and the delivery of its
//     notification is a window during which the tracker's belief can be
//     wrong (MeasureWindows).
package tracking

import (
	"errors"
	"fmt"
	"strings"

	"hpl/internal/knowledge"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Report summarizes the universe checks.
type Report struct {
	// UniverseSize is the number of computations in the universe.
	UniverseSize int
	// ChangePoints is the number of members at which a flip is enabled
	// and performed by some member extension.
	ChangePoints int
}

// CheckUnsureDuringChange model-checks: for every member (x;e) where e
// flips the owner's bit, the tracker is unsure of the bit at x.
func CheckUnsureDuringChange(maxFlips int) (Report, error) {
	sys, u, e, bit, err := build(maxFlips)
	if err != nil {
		return Report{}, err
	}
	rep := Report{UniverseSize: u.Len()}
	p := trace.Singleton(sys.Tracker)
	unsure := knowledge.Not(knowledge.Sure(p, bit))
	for i := 0; i < u.Len(); i++ {
		xe := u.At(i)
		if xe.Len() == 0 {
			continue
		}
		last := xe.At(xe.Len() - 1)
		if last.Kind != trace.KindInternal || last.Tag != tracker.TagFlip {
			continue
		}
		x := xe.Prefix(xe.Len() - 1)
		xi := u.IndexOf(x)
		if xi < 0 {
			return rep, errors.New("tracking: universe not prefix closed")
		}
		rep.ChangePoints++
		if !e.HoldsAt(unsure, xi) {
			return rep, fmt.Errorf("tracking: tracker sure of the bit at a change point (member %d)", xi)
		}
	}
	if rep.ChangePoints == 0 {
		return rep, errors.New("tracking: no change points; check is vacuous")
	}
	return rep, nil
}

// CheckChangeRequiresKnowledge model-checks the necessary condition: at
// every change point x, the owner knows the tracker is unsure of the bit.
func CheckChangeRequiresKnowledge(maxFlips int) (Report, error) {
	sys, u, e, bit, err := build(maxFlips)
	if err != nil {
		return Report{}, err
	}
	rep := Report{UniverseSize: u.Len()}
	p := trace.Singleton(sys.Tracker)
	q := trace.Singleton(sys.Owner)
	ownerKnows := knowledge.Knows(q, knowledge.Not(knowledge.Sure(p, bit)))
	for i := 0; i < u.Len(); i++ {
		xe := u.At(i)
		if xe.Len() == 0 {
			continue
		}
		last := xe.At(xe.Len() - 1)
		if last.Kind != trace.KindInternal || last.Tag != tracker.TagFlip {
			continue
		}
		x := xe.Prefix(xe.Len() - 1)
		xi := u.IndexOf(x)
		if xi < 0 {
			return rep, errors.New("tracking: universe not prefix closed")
		}
		rep.ChangePoints++
		if !e.HoldsAt(ownerKnows, xi) {
			return rep, fmt.Errorf("tracking: owner flipped without knowing tracker is unsure (member %d)", xi)
		}
	}
	if rep.ChangePoints == 0 {
		return rep, errors.New("tracking: no change points; check is vacuous")
	}
	return rep, nil
}

func build(maxFlips int) (*tracker.System, *universe.Universe, *knowledge.Evaluator, knowledge.Formula, error) {
	sys, err := tracker.New("q", "p", maxFlips)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	u, err := sys.Enumerate(sys.SuggestedMaxEvents(), 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	e := knowledge.NewEvaluator(u)
	bit := knowledge.NewAtom(sys.Bit())
	// Sanity: the bit is local to its owner and not to the tracker.
	if !e.LocalTo(bit, trace.Singleton(sys.Owner)) {
		return nil, nil, nil, nil, errors.New("tracking: bit is not local to its owner")
	}
	if e.LocalTo(bit, trace.Singleton(sys.Tracker)) {
		return nil, nil, nil, nil, errors.New("tracking: bit is unexpectedly local to the tracker")
	}
	return sys, u, e, bit, nil
}

// Windows reports belief-accuracy measurements from one walked run.
type Windows struct {
	// Flips is the number of bit changes performed.
	Flips int
	// Events is the total number of events in the run.
	Events int
	// WrongBeliefEvents counts event positions at which the tracker's
	// last-received notification disagreed with the owner's actual bit.
	WrongBeliefEvents int
	// MaxWindow is the longest stretch of consecutive events with a
	// wrong belief.
	MaxWindow int
}

// WrongFraction is WrongBeliefEvents / Events.
func (w Windows) WrongFraction() float64 {
	if w.Events == 0 {
		return 0
	}
	return float64(w.WrongBeliefEvents) / float64(w.Events)
}

// MeasureWindows walks the tracker protocol and measures how long
// the tracker's belief about the bit stays wrong — the operational
// consequence of the unsure-during-change theorem: the belief is wrong
// exactly between a flip and the delivery of its notification.
func MeasureWindows(seed int64, flips int) (Windows, error) {
	sys, err := tracker.New("q", "p", flips)
	if err != nil {
		return Windows{}, err
	}
	comp, err := universe.Walk(sys, universe.WalkConfig{Seed: seed})
	if err != nil {
		return Windows{}, fmt.Errorf("tracking: %w", err)
	}
	// Replay the computation, tracking actual bit vs. tracker belief.
	w := Windows{Events: comp.Len()}
	actual, belief := false, false
	streak := 0
	for i := 0; i < comp.Len(); i++ {
		e := comp.At(i)
		switch {
		case e.Proc == sys.Owner && e.Kind == trace.KindInternal && e.Tag == tracker.TagFlip:
			actual = !actual
			w.Flips++
		case e.Proc == sys.Tracker && e.Kind == trace.KindReceive:
			belief = tagSaysTrue(e.Tag)
		}
		if belief != actual {
			w.WrongBeliefEvents++
			streak++
			if streak > w.MaxWindow {
				w.MaxWindow = streak
			}
		} else {
			streak = 0
		}
	}
	return w, nil
}

func tagSaysTrue(tag string) bool {
	return strings.HasSuffix(tag, ":true")
}
