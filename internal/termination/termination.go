// Package termination implements the paper's §5 termination-detection
// experiment: any correct detector requires, in general, at least as many
// overhead messages as there are messages in the underlying computation.
//
// The experiment triangulates the bound:
//
//   - Dijkstra–Scholten meets it with equality: overhead = basic, ratio
//     exactly 1 on every run;
//   - credit (weight throwing) stays ≤ 1 on benign workloads but is
//     driven to ratio 1 by the adversarial chain workload, matching "in
//     general";
//   - the zero-overhead quiet detector is unsound: FindQuietCounterexample
//     exhibits a run that declares termination while basic messages are
//     in flight — the concrete computation the paper's isomorphism
//     argument predicts.
//
// CheckDetectionChains ties detection back to the knowledge theory:
// detection is knowledge gain, so a process chain must run from every
// participant to the detecting root (Theorem 5).
//
// Every run is a seeded random walk of a detector's universe.Protocol
// (see internal/protocols/diffusing), so each computation the sweep
// measures is a member of the universe enumeration builds from the same
// definition, which faults.Wrap can also wrap.
package termination

import (
	"errors"
	"fmt"

	"hpl/internal/causality"
	"hpl/internal/protocols/diffusing"
	"hpl/internal/trace"
)

// Row is one line of the overhead table (EXP-A3).
type Row struct {
	Messages      int
	DSControl     int
	DSRatio       float64
	CreditControl int
	CreditRatio   float64
}

// SweepConfig parameterizes the overhead sweep.
type SweepConfig struct {
	// Sizes are the underlying message counts to sweep.
	Sizes []int
	// Procs is the topology size.
	Procs int
	// Adversarial selects the chain/fan-out-1 workload that forces the
	// credit detector to its worst case; otherwise a complete topology
	// with fan-out 2 is used.
	Adversarial bool
	// Seed drives the runs.
	Seed int64
}

// Sweep runs DS and credit detectors across the configured sizes.
func Sweep(cfg SweepConfig) ([]Row, error) {
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("termination: empty sweep")
	}
	if cfg.Procs < 2 {
		return nil, errors.New("termination: need at least two processes")
	}
	rows := make([]Row, 0, len(cfg.Sizes))
	for _, m := range cfg.Sizes {
		w := diffusing.Workload{
			TotalMessages: m,
			Seed:          cfg.Seed + int64(m),
		}
		if cfg.Adversarial {
			// Star of sinks, one leaf per message, targeted round-robin:
			// the root sends all m messages, each engaging a distinct
			// leaf that does nothing but (per detector) report back.
			w.Topo = diffusing.Star(m + 1)
			w.FanOut = m
			w.SinksExceptRoot = true
			w.RoundRobin = true
		} else {
			w.Topo = diffusing.Complete(cfg.Procs)
			w.FanOut = 2
		}
		ds, err := diffusing.RunDS(w)
		if err != nil {
			return nil, err
		}
		if !ds.Detected || !ds.Correct {
			return nil, fmt.Errorf("termination: DS failed at m=%d", m)
		}
		cr, err := diffusing.RunCredit(w)
		if err != nil {
			return nil, err
		}
		if !cr.Detected || !cr.Correct {
			return nil, fmt.Errorf("termination: credit failed at m=%d", m)
		}
		rows = append(rows, Row{
			Messages:      m,
			DSControl:     ds.Control,
			DSRatio:       ds.Ratio(),
			CreditControl: cr.Control,
			CreditRatio:   cr.Ratio(),
		})
	}
	return rows, nil
}

// FindQuietCounterexample searches seeds for a run where the
// zero-overhead quiet detector declares termination unsoundly. It
// returns the first offending seed and result.
func FindQuietCounterexample(procs, messages, threshold int, maxSeeds int64) (int64, diffusing.Result, error) {
	if procs < 2 || messages < 1 {
		return 0, diffusing.Result{}, errors.New("termination: degenerate workload")
	}
	for seed := int64(0); seed < maxSeeds; seed++ {
		res, err := diffusing.RunQuiet(diffusing.Workload{
			Topo:          diffusing.Chain(procs),
			TotalMessages: messages,
			FanOut:        1,
			Seed:          seed,
		}, threshold)
		if err != nil {
			return 0, diffusing.Result{}, err
		}
		if res.Detected && !res.Correct {
			return seed, res, nil
		}
	}
	return 0, diffusing.Result{}, fmt.Errorf("termination: no counterexample in %d seeds", maxSeeds)
}

// CheckDetectionChains verifies, on a detector run, the knowledge-gain
// necessary condition (Theorem 5): detection is the root learning that
// the computation terminated, so for every process that sent a basic
// message there must be a process chain from it to the root within the
// prefix ending at the detection event.
func CheckDetectionChains(res diffusing.Result, root trace.ProcID) error {
	if !res.Detected {
		return errors.New("termination: run did not detect")
	}
	detectIdx := -1
	for i := 0; i < res.Comp.Len(); i++ {
		e := res.Comp.At(i)
		if e.Kind == trace.KindInternal && e.Tag == diffusing.TagDetect {
			detectIdx = i
			break
		}
	}
	if detectIdx < 0 {
		return errors.New("termination: no detect event in computation")
	}
	prefix := res.Comp.Prefix(detectIdx + 1)
	g := causality.NewGraph(prefix.Events())
	senders := make(map[trace.ProcID]bool)
	for _, e := range prefix.Events() {
		if e.Kind == trace.KindSend && diffusing.IsBasicTag(e.Tag) {
			senders[e.Proc] = true
		}
	}
	for v := range senders {
		if v == root {
			continue
		}
		sets := []trace.ProcSet{trace.Singleton(v), trace.Singleton(root)}
		if !g.HasChain(sets) {
			return fmt.Errorf("termination: no chain <%s %s> before detection — knowledge gained without communication", v, root)
		}
	}
	return nil
}
