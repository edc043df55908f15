// Benchmarks: one per reproduced figure/table (see the experiment
// registry in internal/experiments), plus ablation benches for the
// engine's design choices. Run with:
//
//	go test -bench=. -benchmem
package hpl_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hpl"
	"hpl/internal/causality"
	"hpl/internal/experiments"
	"hpl/internal/failure"
	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/obs"
	"hpl/internal/protocols/diffusing"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/termination"
	"hpl/internal/trace"
	"hpl/internal/tracking"
	"hpl/internal/universe"
)

func benchTable(b *testing.B, f func() (experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per figure / experiment row ---

func BenchmarkFig31IsomorphismDiagram(b *testing.B) { benchTable(b, experiments.Fig31) }

func BenchmarkFig32FusionLemma(b *testing.B) { benchTable(b, experiments.Fig32) }

func BenchmarkFig33FusionTheorem(b *testing.B) { benchTable(b, experiments.Fig33) }

func BenchmarkIsoProperties(b *testing.B) { benchTable(b, experiments.IsoProperties) }

func BenchmarkTheorem1Dichotomy(b *testing.B) { benchTable(b, experiments.Theorem1) }

func BenchmarkTheorem3EventSemantics(b *testing.B) { benchTable(b, experiments.Theorem3) }

func BenchmarkKnowledgeAxioms(b *testing.B) { benchTable(b, experiments.KnowledgeAxioms) }

func BenchmarkLocalPredicateFacts(b *testing.B) { benchTable(b, experiments.LocalPredicateFacts) }

func BenchmarkCommonKnowledge(b *testing.B) { benchTable(b, experiments.CommonKnowledge) }

func BenchmarkTheorem4KnowledgePath(b *testing.B) { benchTable(b, experiments.Theorem4Path) }

func BenchmarkTheorem5KnowledgeGain(b *testing.B) { benchTable(b, experiments.Theorem5Gain) }

func BenchmarkTheorem6KnowledgeLoss(b *testing.B) { benchTable(b, experiments.Theorem6Loss) }

func BenchmarkTokenBusKnowledge(b *testing.B) { benchTable(b, experiments.TokenBus) }

func BenchmarkTrackingUnsureWindow(b *testing.B) { benchTable(b, experiments.Tracking) }

func BenchmarkFailureDetection(b *testing.B) { benchTable(b, experiments.FailureDetection) }

func BenchmarkTerminationOverhead(b *testing.B) { benchTable(b, experiments.TerminationBound) }

func BenchmarkStateAbstraction(b *testing.B) { benchTable(b, experiments.StateAbstraction) }

func BenchmarkCommitKnowledge(b *testing.B) { benchTable(b, experiments.CommitKnowledge) }

// --- Component benchmarks ---

func BenchmarkUniverseEnumeration(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := universe.EnumerateWith(universe.NewFree(cfg), universe.WithMaxEvents(5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateParallel tracks the worker-pool engine's scaling on
// a mid-size universe (≥10k computations): the same enumeration on 1, 2,
// and 4 workers. The engine guarantees identical results at every width;
// this benchmark tracks what the width buys (expect ≈1× on a single
// core, ≥1.5× at 4 workers on multi-core hardware).
func BenchmarkEnumerateParallel(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				u, err := universe.EnumerateWith(universe.NewFree(cfg),
					universe.WithMaxEvents(5),
					universe.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				size = u.Len()
			}
			if size < 10000 {
				b.Fatalf("universe too small for a meaningful scaling benchmark: %d", size)
			}
			b.ReportMetric(float64(size), "computations")
		})
	}
}

// BenchmarkEnumerateLarge tracks the zero-copy enumeration core at the
// bound the structural-sharing rewrite opened up: a three-process free
// system at MaxEvents=6 (≥100k computations), with allocations
// reported. The engine allocates nothing per member — its records are
// fixed-size and pointer-free, it interns events and state vectors, and
// keeps no seen-set (each member is generated once) — so allocations
// count chunks and tables, not members. retained-B/member is what the
// finished universe keeps live: the heap after a forced collection with
// the universe held, less the heap before the build, per member.
func BenchmarkEnumerateLarge(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			build := func() *universe.Universe {
				u, err := universe.EnumerateWith(universe.NewFree(cfg),
					universe.WithMaxEvents(6),
					universe.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				return u
			}
			var size int
			for i := 0; i < b.N; i++ {
				size = build().Len()
			}
			if size < 100000 {
				b.Fatalf("universe too small for the large-bound benchmark: %d", size)
			}
			b.StopTimer()
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			u := build()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			retained := float64(ms.HeapAlloc) - float64(before)
			b.ReportMetric(retained/float64(u.Len()), "retained-B/member")
			runtime.KeepAlive(u)
			b.ReportMetric(float64(size), "computations")
		})
	}
}

// BenchmarkEnumerateFaults prices the adversarial channel layer on the
// parallel-scaling universe: "plain" is the unwrapped system, "reliable"
// the identity wrap (its cost over plain is the wrapper's passthrough
// overhead — expect noise), and the fault arms enumerate the strictly
// larger fault-extended universes, so their cost is dominated by the
// extra members (reported per run), not by the wrapper.
func BenchmarkEnumerateFaults(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1}
	arms := []struct {
		name string
		wrap func(universe.Protocol) universe.Protocol
	}{
		{"plain", func(p universe.Protocol) universe.Protocol { return p }},
		{"reliable", func(p universe.Protocol) universe.Protocol { return faults.Wrap(p, faults.Model{}) }},
		{"crash", func(p universe.Protocol) universe.Protocol {
			return faults.Wrap(p, faults.Model{CrashAll: true})
		}},
		{"crash+drop+dup", func(p universe.Protocol) universe.Protocol {
			return faults.Wrap(p, faults.Model{CrashAll: true, Drops: 1, Dups: 1})
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				u, err := universe.EnumerateWith(arm.wrap(universe.NewFree(cfg)),
					universe.WithMaxEvents(5))
				if err != nil {
					b.Fatal(err)
				}
				size = u.Len()
			}
			b.ReportMetric(float64(size), "computations")
		})
	}
}

// BenchmarkEnumerateLargeTraced is the workers=1 arm of
// BenchmarkEnumerateLarge with a build trace attached and per-phase
// histograms recording — the observability overhead gate. Tracing is
// meant to be cheap enough to leave on in production (span timestamps
// only at phase boundaries, per-node costs batched into worker-local
// counters), and the recorded BENCH rows hold it to that: this row must
// stay within ~2% of the untraced workers=1 row.
func BenchmarkEnumerateLargeTraced(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	b.Run("workers=1", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			u, err := universe.EnumerateWith(universe.NewFree(cfg),
				universe.WithMaxEvents(6),
				universe.WithParallelism(1),
				universe.WithTrace(obs.NewTrace()))
			if err != nil {
				b.Fatal(err)
			}
			size = u.Len()
		}
		if size < 100000 {
			b.Fatalf("universe too small for the large-bound benchmark: %d", size)
		}
		b.ReportMetric(float64(size), "computations")
	})
}

// BenchmarkColdUniverse is what a cold mck check pays before it
// evaluates anything: enumerate the BenchmarkEnumerateLarge universe,
// then build its first partition table. The engine builds the prefix
// index every partition reads as part of enumeration, so EnumerateLarge
// prices that index without the partition build it saves; this row
// prices the two together.
func BenchmarkColdUniverse(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				u, err := universe.EnumerateWith(universe.NewFree(cfg),
					universe.WithMaxEvents(6),
					universe.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				u.Partition(trace.NewProcSet("p"))
				size = u.Len()
			}
			if size < 100000 {
				b.Fatalf("universe too small for the large-bound benchmark: %d", size)
			}
			b.ReportMetric(float64(size), "computations")
		})
	}
}

// BenchmarkEnumerateSymmetry is the orbit-reduction ablation: the same
// three-process free system enumerated in full and as a symmetry
// quotient under the full interchange group, at the 16.9k (MaxEvents=5)
// and 107k (MaxEvents=6) bounds. Each row reports both the member count
// it materialized and the full-universe count it stands for
// (full-members), so each row carries the reduction ratio — 107,593 →
// 17,933 (6.00×) at MaxEvents=6 — next to the time saved. The quotient
// arms pay per-child canonicalization against the parent's stabilizer,
// so the speedup is below the member ratio; the win compounds through
// every downstream pass (partitions, truth vectors, temporal sweeps)
// that now touches one member per orbit.
func BenchmarkEnumerateSymmetry(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	grp := universe.InferSymmetry(universe.NewFree(cfg))
	if grp.Trivial() {
		b.Fatal("free protocol did not declare its interchange group")
	}
	for _, me := range []int{5, 6} {
		b.Run(fmt.Sprintf("full/events=%d", me), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				u, err := universe.EnumerateWith(universe.NewFree(cfg), universe.WithMaxEvents(me))
				if err != nil {
					b.Fatal(err)
				}
				size = u.Len()
			}
			b.ReportMetric(float64(size), "computations")
			b.ReportMetric(float64(size), "full-members")
		})
		b.Run(fmt.Sprintf("quotient/events=%d", me), func(b *testing.B) {
			b.ReportAllocs()
			var u *universe.Universe
			for i := 0; i < b.N; i++ {
				var err error
				u, err = universe.EnumerateWith(universe.NewFree(cfg),
					universe.WithMaxEvents(me),
					universe.WithSymmetry(grp))
				if err != nil {
					b.Fatal(err)
				}
			}
			if !u.IsQuotient() || u.FullSize() <= int64(u.Len()) {
				b.Fatalf("quotient did not reduce: %d members for %d full", u.Len(), u.FullSize())
			}
			b.ReportMetric(float64(u.Len()), "computations")
			b.ReportMetric(float64(u.FullSize()), "full-members")
		})
	}
}

// snapshotBenchUniverse enumerates the 107k-member MaxEvents=6 universe
// the snapshot and extension benchmarks exercise — the same universe as
// BenchmarkEnumerateLarge, so its workers=1 row is the re-enumeration
// baseline the snapshot load is measured against.
func snapshotBenchUniverse(b *testing.B) *universe.Universe {
	b.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 2,
	}), universe.WithMaxEvents(6))
	if err != nil {
		b.Fatal(err)
	}
	if u.Len() < 100000 {
		b.Fatalf("universe too small for the snapshot benchmarks: %d", u.Len())
	}
	return u
}

// BenchmarkSnapshotWriteLarge measures encoding the 107k-member
// universe (with its transition graph and a partition table resident)
// to the versioned binary snapshot format.
func BenchmarkSnapshotWriteLarge(b *testing.B) {
	u := snapshotBenchUniverse(b)
	u.Transitions()
	u.Partition(u.All())
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := universe.WriteSnapshot(&buf, u, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(u.Len()), "computations")
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
}

// BenchmarkSnapshotLoadLarge measures the cold-start race on the
// 107k-member universe: both arms end in the same place — a universe
// with its transition graph and full-set partition table resident,
// ready to answer the standard query mix — but "enumerate" gets there
// the way a restart without snapshots does (re-run the protocol, build
// the tables), while "load" decodes the snapshot, where the tables come
// back as flat arrays and the projection-key index fills in lazily only
// if a non-member lookup ever needs it. The gap between the arms is
// what -snapshot-dir buys per restart (expect ≥10×).
func BenchmarkSnapshotLoadLarge(b *testing.B) {
	u := snapshotBenchUniverse(b)
	u.Transitions()
	u.Partition(u.All())
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, u, "bench"); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	b.Run("enumerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := universe.EnumerateWith(universe.NewFree(cfg), universe.WithMaxEvents(6))
			if err != nil {
				b.Fatal(err)
			}
			got.Transitions()
			got.Partition(got.All())
		}
		b.ReportMetric(float64(u.Len()), "computations")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			got, _, err := universe.ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			size = got.Len()
		}
		if size != u.Len() {
			b.Fatalf("loaded %d members, want %d", size, u.Len())
		}
		b.ReportMetric(float64(size), "computations")
	})
}

// BenchmarkPartitionCold measures the partition set-up a freshly
// started hpld pays before it can answer arbitrary formulas. The "full"
// arm loads the 107k-member snapshot (written without tables) and
// builds the tables of all 7 non-empty subsets of {p,q,r} plus the
// transition graph. The "quotient" arm loads the 17,933-member
// symmetry quotient and builds its four tables: the three singletons
// and {p,q,r}. Both arms time the load too, because the first table
// build shares the prefix index the load seeds.
func BenchmarkPartitionCold(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	all := trace.NewProcSet(cfg.Procs...)
	var fullSets []trace.ProcSet
	for mask := 1; mask < 8; mask++ {
		var ids []trace.ProcID
		for k, p := range cfg.Procs {
			if mask&(1<<k) != 0 {
				ids = append(ids, p)
			}
		}
		fullSets = append(fullSets, trace.NewProcSet(ids...))
	}
	quotientSets := []trace.ProcSet{trace.Singleton("p"), trace.Singleton("q"), trace.Singleton("r"), all}
	arm := func(name string, opts []universe.Option, sets []trace.ProcSet, transitions bool) {
		u, err := universe.EnumerateWith(universe.NewFree(cfg), append(opts, universe.WithMaxEvents(6))...)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := universe.WriteSnapshot(&buf, u, "bench"); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, _, err := universe.ReadSnapshot(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range sets {
					got.Partition(p)
				}
				if transitions {
					got.Transitions()
				}
			}
			b.ReportMetric(float64(u.Len()), "computations")
		})
	}
	arm("full", nil, fullSets, true)
	grp := universe.InferSymmetry(universe.NewFree(cfg))
	arm("quotient", []universe.Option{universe.WithSymmetry(grp)}, quotientSets, false)
}

// BenchmarkExtendLargeBound pushes the bound into the 621k-member
// MaxEvents=7 territory both ways: enumerating from scratch and
// extending the cached MaxEvents=6 universe in place — the frontier
// below the old bound is never re-enumerated, so the extension arm is
// the marginal cost of the new bound alone.
func BenchmarkExtendLargeBound(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	b.Run("from-scratch-7", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			u, err := universe.EnumerateWith(universe.NewFree(cfg), universe.WithMaxEvents(7))
			if err != nil {
				b.Fatal(err)
			}
			size = u.Len()
		}
		b.ReportMetric(float64(size), "computations")
	})
	b.Run("extend-6to7", func(b *testing.B) {
		base := snapshotBenchUniverse(b)
		b.ResetTimer()
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			u, err := universe.Extend(base, universe.WithMaxEvents(7))
			if err != nil {
				b.Fatal(err)
			}
			size = u.Len()
		}
		if size < 600000 {
			b.Fatalf("extended universe too small: %d", size)
		}
		b.ReportMetric(float64(size), "computations")
	})
}

func BenchmarkVectorClocks(b *testing.B) {
	res, err := diffusing.RunDS(diffusing.Workload{
		Topo: diffusing.Complete(6), TotalMessages: 100, FanOut: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := res.Comp.Events()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		causality.VectorClocks(events)
	}
}

func BenchmarkHappenedBeforeGraph(b *testing.B) {
	res, err := diffusing.RunDS(diffusing.Workload{
		Topo: diffusing.Complete(6), TotalMessages: 100, FanOut: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := res.Comp.Events()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		causality.NewGraph(events)
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	bus := tokenbus.MustNew("p", "q", "r", "s", "t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Simulate(int64(i), 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstraScholtenRun(b *testing.B) {
	w := diffusing.Workload{Topo: diffusing.Complete(8), TotalMessages: 200, FanOut: 2, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := diffusing.RunDS(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreditRun(b *testing.B) {
	w := diffusing.Workload{Topo: diffusing.Complete(8), TotalMessages: 200, FanOut: 2, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := diffusing.RunCredit(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForeverUnsureCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := failure.CheckForeverUnsure(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackingModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tracking.CheckUnsureDuringChange(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuietCounterexampleSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := termination.FindQuietCounterexample(6, 30, 2, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (each engine design choice against a simpler baseline) ---

func ablationUniverse(b *testing.B) *universe.Universe {
	b.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(5))
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkAblationProjectionIndex measures class lookup via the
// partition table (warm) against pairwise scanning.
func BenchmarkAblationProjectionIndex(b *testing.B) {
	u := ablationUniverse(b)
	p := trace.Singleton("q")
	u.Class(u.At(0), p) // warm the index
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < u.Len(); j++ {
				u.Class(u.At(j), p)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < u.Len(); j++ {
				u.ClassScan(u.At(j), p)
			}
		}
	})
}

// BenchmarkAblationChainDetection compares the linear-pass chain DP
// against quadratic brute force over the happened-before closure.
func BenchmarkAblationChainDetection(b *testing.B) {
	res, err := diffusing.RunDS(diffusing.Workload{
		Topo: diffusing.Complete(6), TotalMessages: 60, FanOut: 2, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := res.Comp.Events()
	sets := []trace.ProcSet{trace.Singleton("n01"), trace.Singleton("n00")}
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := causality.NewGraph(events)
			g.HasChain(sets)
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := causality.NewGraph(events)
			found := false
			for x := 0; x < g.Len() && !found; x++ {
				if g.Event(x).Proc != "n01" {
					continue
				}
				for y := 0; y < g.Len() && !found; y++ {
					if g.Event(y).Proc == "n00" && g.HappenedBefore(x, y) {
						found = true
					}
				}
			}
		}
	})
}

// BenchmarkAblationKnowledgeMemo compares the memoizing evaluator
// against naive recursion on a nested-knowledge formula.
func BenchmarkAblationKnowledgeMemo(b *testing.B) {
	u := ablationUniverse(b)
	f := knowledge.Knows(trace.Singleton("p"),
		knowledge.Knows(trace.Singleton("q"),
			knowledge.NewAtom(knowledge.SentTag("p", "m"))))
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knowledge.NewEvaluator(u).TruthVector(f)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < u.Len(); j++ {
				knowledge.EvalNaive(u, f, j)
			}
		}
	})
}

// ablationUniverseLarge enumerates a ≥10k-computation universe (16.9k
// members on three processes) for the vectorized-engine ablations.
func ablationUniverseLarge(b *testing.B) *universe.Universe {
	b.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 2,
	}), universe.WithMaxEvents(5))
	if err != nil {
		b.Fatal(err)
	}
	if u.Len() < 10000 {
		b.Fatalf("universe too small for the vectorized-eval ablation: %d", u.Len())
	}
	return u
}

// BenchmarkAblationVectorizedEval compares the vectorized set-at-a-time
// engine against the naive per-member reference (EvalNaive) on a
// nested-knowledge formula over the ≥10k-member universe. The naive
// path rescans every class inside each Knows at every member; the
// vectorized path takes the formula's truth vector once per op, paying
// one all-reduce per class.
func BenchmarkAblationVectorizedEval(b *testing.B) {
	u := ablationUniverseLarge(b)
	u.Partition(trace.Singleton("p")) // warm shared tables: measure evaluation, not indexing
	u.Partition(trace.Singleton("q"))
	f := knowledge.Knows(trace.Singleton("p"),
		knowledge.Knows(trace.Singleton("q"),
			knowledge.NewAtom(knowledge.SentTag("p", "m"))))
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			knowledge.NewEvaluator(u).TruthVector(f)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < u.Len(); j++ {
				knowledge.EvalNaive(u, f, j)
			}
		}
	})
}

// BenchmarkAblationPartitionTable compares the dense partition table,
// built from the universe's prefix index and a history trie, against a
// string-keyed projection map: build the class structure for {q}, then
// resolve every member's class.
func BenchmarkAblationPartitionTable(b *testing.B) {
	u := ablationUniverseLarge(b)
	p := trace.Singleton("q")
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pt := universe.NewPartition(u, p)
			total := 0
			for j := 0; j < u.Len(); j++ {
				total += len(pt.MembersOf(pt.ClassOf(j)))
			}
			if total < u.Len() {
				b.Fatal("partition lost members")
			}
		}
	})
	b.Run("stringmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx := make(map[string][]int)
			for j := 0; j < u.Len(); j++ {
				pk := u.At(j).ProjectionKey(p)
				idx[pk] = append(idx[pk], j)
			}
			total := 0
			for j := 0; j < u.Len(); j++ {
				total += len(idx[u.At(j).ProjectionKey(p)])
			}
			if total < u.Len() {
				b.Fatal("index lost members")
			}
		}
	})
}

// BenchmarkTransitionGraph measures building the prefix-extension
// transition graph (labels + child ranges + topological order) on the ≥10k-member
// universe — the one-time cost the temporal layer pays per universe.
func BenchmarkTransitionGraph(b *testing.B) {
	u := ablationUniverseLarge(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := universe.NewTransitions(u)
		if t.NumEdges() != u.Len()-1 {
			b.Fatalf("graph lost edges: %d", t.NumEdges())
		}
	}
}

// BenchmarkAblationTemporalEval compares the single-sweep vectorized
// temporal fixpoints against the naive per-member graph recursion on
// the knowledge-gain formula AG(K{q} b → Once r) over the whole
// ≥10k-member universe. The naive arm re-walks each member's extension
// subtree (and recomputes the epistemic subformulas per member), so
// expect orders of magnitude.
func BenchmarkAblationTemporalEval(b *testing.B) {
	u := ablationUniverseLarge(b)
	u.Partition(trace.Singleton("q")) // warm shared tables, as in the epistemic ablation
	u.Transitions()
	f := knowledge.AG(knowledge.Implies(
		knowledge.Knows(trace.Singleton("q"), knowledge.NewAtom(knowledge.SentTag("p", "m"))),
		knowledge.Once(knowledge.NewAtom(knowledge.ReceivedTag("q", "m")))))
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := knowledge.NewEvaluator(u)
			holding, _ := e.Summary(f)
			if holding == 0 {
				b.Fatal("gain formula cannot hold nowhere")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		// One naive full-universe pass is far slower than the other
		// arms; keep it meaningful but bounded by sampling every 16th
		// member.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < u.Len(); j += 16 {
				knowledge.EvalNaive(u, f, j)
			}
		}
	})
}

// BenchmarkAblationAtomFold prices the spec vocabulary's atoms over the
// reference universe (free p,q,r, two sends, six events; 107,593
// members), each in a fresh evaluator. "fold" is the evaluator's path
// for the stock atoms, which are history counts: one fold down the
// prefix index per atom. "walk" hides each atom behind NewPredicate, so
// the evaluator samples Holds serially at every member, walking the
// member's event chain.
func BenchmarkAblationAtomFold(b *testing.B) {
	spec := hpl.UniverseSpec{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6}
	ck, err := hpl.CheckSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	u := ck.Universe()
	fold := spec.Predicates()
	walk := make([]knowledge.Predicate, len(fold))
	for i, p := range fold {
		walk[i] = knowledge.NewPredicate(p.Name(), p.Holds)
	}
	for _, arm := range []struct {
		name  string
		preds []knowledge.Predicate
	}{{"fold", fold}, {"walk", walk}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := knowledge.NewEvaluator(u)
				for _, p := range arm.preds {
					ev.Valid(knowledge.NewAtom(p))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(arm.preds)), "us/atom")
		})
	}
}

// BenchmarkAblationCountWeighted prices the orbit-weighted holding
// count over the 17,933-member quotient of free p,q,r (two sends, six
// events) under S3, for formulas whose truth vectors are already
// memoized. "member" is the per-member loop: every member whose bit is
// set adds its OrbitSize. "classes" is Evaluator.CountWeighted: one
// masked popcount of the vector per weight class, four under S3.
func BenchmarkAblationCountWeighted(b *testing.B) {
	cfg := universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2}
	u, err := universe.EnumerateWith(universe.NewFree(cfg),
		universe.WithMaxEvents(6), universe.WithSymmetry(universe.InferSymmetry(universe.NewFree(cfg))))
	if err != nil {
		b.Fatal(err)
	}
	if u.Len() != 17933 {
		b.Fatalf("reference quotient has %d members, want 17,933", u.Len())
	}
	anySent := knowledge.NewAtom(knowledge.AnySentTag("m"))
	fs := []knowledge.Formula{
		anySent,
		knowledge.Knows(u.All(), anySent),
		knowledge.Implies(knowledge.NewAtom(knowledge.AnyReceivedTag("m")), knowledge.Once(anySent)),
	}
	ev := knowledge.NewEvaluator(u)
	truth := make([][]bool, len(fs))
	for k, f := range fs {
		truth[k] = ev.TruthVector(f)
	}
	var sink int64
	b.Run("member", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tv := range truth {
				for j, holds := range tv {
					if holds {
						sink += u.OrbitSize(j)
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(fs)), "us/count")
	})
	b.Run("classes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				sink += ev.CountWeighted(f)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(fs)), "us/count")
	})
	_ = sink
}

func BenchmarkKnowledgeLadder(b *testing.B) { benchTable(b, experiments.KnowledgeLadder) }

func BenchmarkLargeBoundTheorems(b *testing.B) { benchTable(b, experiments.LargeBound) }

func BenchmarkGeneralizations(b *testing.B) { benchTable(b, experiments.Generalizations) }
