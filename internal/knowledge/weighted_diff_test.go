package knowledge_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// countWeightedRef is the reference semantics of CountWeighted: walk
// every member and add its orbit size wherever f holds.
func countWeightedRef(ev *knowledge.Evaluator, f knowledge.Formula) int64 {
	u := ev.Universe()
	var n int64
	for i, holds := range ev.TruthVector(f) {
		if holds {
			n += u.OrbitSize(i)
		}
	}
	return n
}

// requireWeightedCounts checks, for every formula of the suite, that
// the quotient's weight-class count equals the per-member reference and
// the full universe's holding count, and that WeightedSummary agrees
// with Summary and CountWeighted on both universes.
func requireWeightedCounts(t *testing.T, label string, quo, full *universe.Universe, suite []knowledge.Formula) {
	t.Helper()
	qev, fev := knowledge.NewEvaluator(quo), knowledge.NewEvaluator(full)
	for _, f := range suite {
		fh, fff := fev.Summary(f)
		got, ref := qev.CountWeighted(f), countWeightedRef(qev, f)
		if got != ref || got != int64(fh) {
			t.Fatalf("%s: %s: CountWeighted %d, per-member reference %d, full universe %d", label, f, got, ref, fh)
		}
		qh, qff := qev.Summary(f)
		if h, ff, w := qev.WeightedSummary(f); h != qh || ff != qff || w != got {
			t.Fatalf("%s: %s: WeightedSummary (%d, %d, %d) on the quotient, want (%d, %d, %d)", label, f, h, ff, w, qh, qff, got)
		}
		if h, ff, w := fev.WeightedSummary(f); h != fh || ff != fff || w != int64(fh) || fev.CountWeighted(f) != w {
			t.Fatalf("%s: %s: WeightedSummary (%d, %d, %d) on the full universe, want (%d, %d, %d)", label, f, h, ff, w, fh, fff, fh)
		}
	}
}

// TestCountWeightedMatchesReference differences the weight-class count
// against the per-member loop and the full universe, over the symmetric
// suite on the full-group free system and the partial-class group
// {w1,w2} of hub,w1,w2: quotients enumerated at parallelism 1, 2 and 8,
// loaded from a snapshot and extended by one event, plus 8 goroutines
// counting through one fresh evaluator.
func TestCountWeightedMatchesReference(t *testing.T) {
	partial, err := universe.NewSymmetry([]trace.ProcID{"w1", "w2"})
	if err != nil {
		t.Fatal(err)
	}
	free3 := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
	cases := []struct {
		name  string
		proto universe.Protocol
		sym   *universe.Symmetry
		fixed []trace.ProcID
	}{
		{"free-3-full-group", free3, universe.InferSymmetry(free3), nil},
		{"hub-w1-w2", universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"hub", "w1", "w2"}, MaxSends: 2}), partial, []trace.ProcID{"hub"}},
	}
	const maxEvents = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := universe.MustEnumerateWith(tc.proto, universe.WithMaxEvents(maxEvents))
			next := universe.MustEnumerateWith(tc.proto, universe.WithMaxEvents(maxEvents+1))
			suite := symmetricSuite(full.All(), tc.fixed, "m")
			var quo *universe.Universe
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				quo, err = universe.EnumerateWith(tc.proto, universe.WithMaxEvents(maxEvents),
					universe.WithSymmetry(tc.sym), universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireWeightedCounts(t, label, quo, full, suite)
				ext, err := universe.Extend(quo, universe.WithMaxEvents(maxEvents+1), universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireWeightedCounts(t, label+" extension", ext, next, suite)
			}
			var buf bytes.Buffer
			if err := universe.WriteSnapshot(&buf, quo, "d"); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := universe.ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireWeightedCounts(t, "snapshot load", loaded, full, suite)

			want := make([]int64, len(suite))
			ref := knowledge.NewEvaluator(quo)
			for k, f := range suite {
				want[k] = countWeightedRef(ref, f)
			}
			ev := knowledge.NewEvaluator(quo)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := range suite {
						k = (k + g) % len(suite)
						if got := ev.CountWeighted(suite[k]); got != want[k] {
							t.Errorf("goroutine %d: %s: CountWeighted %d, reference %d", g, suite[k], got, want[k])
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
