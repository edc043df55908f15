package knowledge_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// symmetricSuite is the G-invariant theorem mix the quotient must agree
// with the full universe on: atoms fixed by the group, knowledge among
// invariant process sets, sure/common operators, and temporal nesting.
// fixed are processes outside every symmetry class (may be empty);
// all is the full process set (invariant by construction).
func symmetricSuite(all trace.ProcSet, fixed []trace.ProcID, tag string) []knowledge.Formula {
	anySent := knowledge.NewAtom(knowledge.AnySentTag(tag))
	anyRecv := knowledge.NewAtom(knowledge.AnyReceivedTag(tag))
	quiet := knowledge.NewAtom(knowledge.NoMessagesInFlight())
	fs := []knowledge.Formula{
		anySent,
		knowledge.Implies(anyRecv, anySent),
		knowledge.Knows(all, anySent),
		knowledge.Sure(all, quiet),
		knowledge.Common(knowledge.Implies(anyRecv, anySent)),
		knowledge.AG(knowledge.Implies(anyRecv, knowledge.Once(anySent))),
		knowledge.EF(knowledge.And(anySent, quiet)),
		knowledge.Knows(all, knowledge.Not(knowledge.And(anyRecv, knowledge.Not(anySent)))),
	}
	for _, p := range fixed {
		sent := knowledge.NewAtom(knowledge.SentTag(p, tag))
		fs = append(fs,
			knowledge.Implies(sent, anySent),
			knowledge.Knows(all, knowledge.Implies(sent, anySent)),
			knowledge.AG(knowledge.Implies(knowledge.NewAtom(knowledge.ReceivedTag(p, tag)), anySent)),
		)
	}
	return fs
}

// checkQuotientAgrees evaluates the suite on the full universe and on
// the quotient and requires identical verdicts everywhere: validity,
// init verdict, and the orbit-weighted holding count against the full
// count, at several worker counts.
func checkQuotientAgrees(t *testing.T, label string, proto universe.Protocol, sym *universe.Symmetry, maxEvents int, fixed []trace.ProcID, tag string) {
	t.Helper()
	full, err := universe.EnumerateWith(proto, universe.WithMaxEvents(maxEvents))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fev := knowledge.NewEvaluator(full)
	all := full.All()
	suite := symmetricSuite(all, fixed, tag)
	for _, workers := range []int{1, 2, 8} {
		quo, err := universe.EnumerateWith(proto,
			universe.WithMaxEvents(maxEvents),
			universe.WithSymmetry(sym),
			universe.WithParallelism(workers))
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if quo.FullSize() != int64(full.Len()) {
			t.Fatalf("%s workers=%d: orbit sizes sum to %d, full universe has %d", label, workers, quo.FullSize(), full.Len())
		}
		qev := knowledge.NewEvaluator(quo)
		initF, initQ := full.IndexOf(trace.Empty()), quo.IndexOf(trace.Empty())
		if initF < 0 || initQ < 0 {
			t.Fatalf("%s: missing null computation (%d, %d)", label, initF, initQ)
		}
		for _, f := range suite {
			if err := qev.ValidateSymmetric(f); err != nil {
				t.Fatalf("%s workers=%d: suite formula %s rejected: %v", label, workers, f, err)
			}
			fh, _ := fev.Summary(f)
			wantValid := fh == full.Len()
			qh, _ := qev.Summary(f)
			gotValid := qh == quo.Len()
			if gotValid != wantValid {
				t.Fatalf("%s workers=%d: %s valid=%v on quotient, %v on full", label, workers, f, gotValid, wantValid)
			}
			if got, want := qev.CountWeighted(f), int64(fh); got != want {
				t.Fatalf("%s workers=%d: %s holds at %d full members by weight, %d by enumeration", label, workers, f, got, want)
			}
			if got, want := qev.HoldsAt(f, initQ), fev.HoldsAt(f, initF); got != want {
				t.Fatalf("%s workers=%d: %s at init: %v on quotient, %v on full", label, workers, f, got, want)
			}
		}
	}
}

// TestQuotientVerdictsMatchFull is the end-to-end safety net for the
// whole symmetry-reduction stack: identical verdicts on quotient and
// full universes for every formula of the symmetric suite, over the
// full-group free system, a partial-class free system (with processes
// the group fixes), and a tagged two-class configuration.
func TestQuotientVerdictsMatchFull(t *testing.T) {
	t.Run("free-3-full-group", func(t *testing.T) {
		proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
		checkQuotientAgrees(t, "free-3", proto, universe.InferSymmetry(proto), 5, nil, "m")
	})
	t.Run("free-3-partial-class", func(t *testing.T) {
		proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1, MaxInternal: 1})
		sym, err := universe.NewSymmetry([]trace.ProcID{"q", "r"})
		if err != nil {
			t.Fatal(err)
		}
		// p is fixed by the group, so p-specific atoms stay admissible.
		checkQuotientAgrees(t, "free-3-partial", proto, sym, 5, []trace.ProcID{"p"}, "m")
	})
	t.Run("free-4-two-classes", func(t *testing.T) {
		proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"a", "b", "c", "d"}, MaxSends: 1, SendTags: []string{"m", "n"}})
		sym, err := universe.NewSymmetry([]trace.ProcID{"a", "b"}, []trace.ProcID{"c", "d"})
		if err != nil {
			t.Fatal(err)
		}
		checkQuotientAgrees(t, "free-4", proto, sym, 4, nil, "n")
	})
}

// TestQuotientVerdictsMatchFullRandom fuzzes free configurations and
// class choices with a fixed seed.
func TestQuotientVerdictsMatchFullRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential is not short")
	}
	rng := rand.New(rand.NewSource(85))
	names := []trace.ProcID{"p", "q", "r", "s"}
	for round := 0; round < 6; round++ {
		n := 2 + rng.Intn(3)
		procs := append([]trace.ProcID(nil), names[:n]...)
		cfg := universe.FreeConfig{
			Procs:       procs,
			MaxSends:    1 + rng.Intn(2),
			MaxInternal: rng.Intn(2),
		}
		if rng.Intn(2) == 1 {
			cfg.SendTags = []string{"m", "n"}
		}
		// Pick a random class of ≥2 processes; the rest stay fixed.
		k := 2 + rng.Intn(n-1)
		class := append([]trace.ProcID(nil), procs[:k]...)
		sym, err := universe.NewSymmetry(class)
		if err != nil {
			t.Fatal(err)
		}
		maxEvents := 3 + rng.Intn(2)
		label := fmt.Sprintf("round-%d(procs=%d,class=%d,me=%d)", round, n, k, maxEvents)
		proto := universe.NewFree(cfg)
		checkQuotientAgrees(t, label, proto, sym, maxEvents, procs[k:], "m")
	}
}

// TestQuotientRejectsAsymmetric: asymmetric formulas on a quotient must
// fail with a structured *AsymmetryError at every error-returning
// entrypoint, and the evaluation core must refuse (panic) rather than
// compute garbage on the panic-only paths.
func TestQuotientRejectsAsymmetric(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	quo, err := universe.EnumerateWith(proto,
		universe.WithMaxEvents(4),
		universe.WithSymmetry(universe.InferSymmetry(proto)))
	if err != nil {
		t.Fatal(err)
	}
	ev := knowledge.NewEvaluator(quo)

	var asym *knowledge.AsymmetryError
	sentP := knowledge.NewAtom(knowledge.SentTag("p", "m"))
	if err := ev.ValidateSymmetric(sentP); !errors.As(err, &asym) {
		t.Fatalf("p-specific atom must be rejected, got %v", err)
	}
	knowsQ := knowledge.Knows(trace.NewProcSet("q"), knowledge.NewAtom(knowledge.AnySentTag("m")))
	if err := ev.ValidateSymmetric(knowsQ); !errors.As(err, &asym) {
		t.Fatalf("class-splitting knows must be rejected, got %v", err)
	}
	if asym.Group == "" || asym.Reason == "" {
		t.Fatalf("error must carry group and reason: %+v", asym)
	}
	sureQR := knowledge.Sure(trace.NewProcSet("q", "r"), knowledge.NewAtom(knowledge.AnySentTag("m")))
	if err := ev.ValidateSymmetric(sureQR); !errors.As(err, &asym) {
		t.Fatalf("sure over a partial class must be rejected, got %v", err)
	}
	undeclared := knowledge.NewAtom(knowledge.NewCount("mystery", func(trace.Event) int32 { return 0 }, func(int32) bool { return true }))
	if err := ev.ValidateSymmetric(knowledge.EF(undeclared)); !errors.As(err, &asym) {
		t.Fatalf("undeclared predicate must be rejected, got %v", err)
	}
	if _, err := ev.Holds(sentP, trace.Empty()); !errors.As(err, &asym) {
		t.Fatalf("Holds must refuse asymmetric formulas, got %v", err)
	}

	// Nested offenders are found inside temporal and epistemic context.
	nested := knowledge.AG(knowledge.Common(knowledge.Or(knowledge.NewAtom(knowledge.AnySentTag("m")), sentP)))
	if err := ev.ValidateSymmetric(nested); !errors.As(err, &asym) {
		t.Fatalf("nested asymmetric atom must be rejected, got %v", err)
	}

	// The same suite passes on the full universe.
	fullEv := knowledge.NewEvaluator(universe.MustEnumerateWith(proto, universe.WithMaxEvents(4)))
	for _, f := range []knowledge.Formula{sentP, knowsQ, sureQR, nested} {
		if err := fullEv.ValidateSymmetric(f); err != nil {
			t.Fatalf("full universe must accept %s: %v", f, err)
		}
	}

	// Panic backstops on the paths without an error return.
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("%s must panic on an asymmetric formula", name)
			} else if _, ok := r.(*knowledge.AsymmetryError); !ok {
				t.Fatalf("%s panicked with %T, want *AsymmetryError", name, r)
			}
		}()
		fn()
	}
	mustPanic("atom backstop", func() { ev.Valid(sentP) })
	mustPanic("knows backstop", func() { ev.Valid(knowsQ) })
}

// TestTokenPassingFixedProcessOnQuotient exercises a mixed system end
// to end: only two of three processes are symmetric, and formulas about
// the fixed process remain checkable on the quotient.
func TestTokenPassingFixedProcessOnQuotient(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"hub", "w1", "w2"}, MaxSends: 2})
	sym, err := universe.NewSymmetry([]trace.ProcID{"w1", "w2"})
	if err != nil {
		t.Fatal(err)
	}
	quo, err := universe.EnumerateWith(proto, universe.WithMaxEvents(5), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	full := universe.MustEnumerateWith(proto, universe.WithMaxEvents(5))
	qev, fev := knowledge.NewEvaluator(quo), knowledge.NewEvaluator(full)
	hubSent := knowledge.NewAtom(knowledge.SentTag("hub", "m"))
	f := knowledge.Knows(trace.NewProcSet("hub"), knowledge.Implies(knowledge.NewAtom(knowledge.AnyReceivedTag("m")), knowledge.NewAtom(knowledge.AnySentTag("m"))))
	for _, g := range []knowledge.Formula{hubSent, f, knowledge.Once(hubSent)} {
		if err := qev.ValidateSymmetric(g); err != nil {
			t.Fatalf("%s must be admissible (hub is fixed): %v", g, err)
		}
		fh, _ := fev.Summary(g)
		if got := qev.CountWeighted(g); got != int64(fh) {
			t.Fatalf("%s: weighted count %d vs full %d", g, got, fh)
		}
	}
}
