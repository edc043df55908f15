package universe_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// TestExtendMatchesFromScratch is the incremental-enumeration
// differential: extending a bound-(n-1) universe to bound n must yield
// a universe byte-identical — member order, Partition tables,
// Transitions graph — to enumerating bound n from scratch, for every
// protocol in internal/protocols, at several parallelism levels.
func TestExtendMatchesFromScratch(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			want, err := universe.EnumerateWith(e.p, universe.WithMaxEvents(e.maxEvents))
			if err != nil {
				t.Fatal(err)
			}
			base, err := universe.EnumerateWith(e.p, universe.WithMaxEvents(e.maxEvents-1))
			if err != nil {
				t.Fatal(err)
			}
			if base.Len() == want.Len() {
				// The protocol exhausts below the bound; extension must
				// still be the identity, so keep the comparison.
				t.Logf("bound %d already saturates at %d members", e.maxEvents-1, base.Len())
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := universe.Extend(base,
					universe.WithMaxEvents(e.maxEvents),
					universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalUniverses(t, fmt.Sprintf("workers=%d", workers), got, want)
				if got.MaxEvents() != e.maxEvents {
					t.Fatalf("workers=%d: MaxEvents = %d, want %d", workers, got.MaxEvents(), e.maxEvents)
				}
			}
		})
	}
}

// TestExtendChained grows a universe one bound at a time across several
// steps and from a parallel base build, checking each rung against a
// from-scratch enumeration: extension must compose, not just work once.
func TestExtendChained(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	u, err := universe.EnumerateWith(p, universe.WithMaxEvents(2), universe.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for bound := 3; bound <= 6; bound++ {
		u, err = universe.Extend(u, universe.WithMaxEvents(bound), universe.WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := universe.EnumerateWith(p, universe.WithMaxEvents(bound))
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalUniverses(t, fmt.Sprintf("bound=%d", bound), u, want)
	}
}

// TestExtendAfterSnapshotLoad closes the serving-layer loop: a universe
// written to a snapshot, loaded back, and re-bound to its protocol must
// extend exactly like the original.
func TestExtendAfterSnapshotLoad(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	base, err := universe.EnumerateWith(p, universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, base, "extend-test"); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := universe.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := universe.Extend(loaded, universe.WithMaxEvents(5)); !errors.Is(err, universe.ErrCannotExtend) {
		t.Fatalf("extend before BindProtocol: err = %v, want ErrCannotExtend", err)
	}
	loaded.BindProtocol(p)
	got, err := universe.Extend(loaded, universe.WithMaxEvents(5), universe.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := universe.EnumerateWith(p, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalUniverses(t, "snapshot+extend", got, want)
}

// TestExtendErrors pins the failure modes: hand-built universes carry
// no enumeration state, target bounds cannot shrink, and an equal bound
// is the identity.
func TestExtendErrors(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	})
	u, err := universe.EnumerateWith(p, universe.WithMaxEvents(3))
	if err != nil {
		t.Fatal(err)
	}

	hand := universe.New(u.Computations(), u.All())
	if _, err := universe.Extend(hand, universe.WithMaxEvents(4)); !errors.Is(err, universe.ErrCannotExtend) {
		t.Fatalf("hand-built: err = %v, want ErrCannotExtend", err)
	}

	if _, err := universe.Extend(u, universe.WithMaxEvents(2)); !errors.Is(err, universe.ErrCannotExtend) {
		t.Fatalf("shrinking bound: err = %v, want ErrCannotExtend", err)
	}

	same, err := universe.Extend(u, universe.WithMaxEvents(3))
	if err != nil {
		t.Fatal(err)
	}
	if same != u {
		t.Fatalf("equal bound: got a new universe, want the same one back")
	}

	if _, err := universe.Extend(u, universe.WithMaxEvents(4), universe.WithCap(u.Len())); !errors.Is(err, universe.ErrTooLarge) {
		t.Fatalf("cap below result size: err = %v, want ErrTooLarge", err)
	}
}

// TestExtendConcurrent extends one base universe from several
// goroutines while others query it, under -race: extension shares the
// base's prefix tree and state table, and that sharing must be sound.
func TestExtendConcurrent(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	base, err := universe.EnumerateWith(p, universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := universe.EnumerateWith(p, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*universe.Universe, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := universe.Extend(base,
				universe.WithMaxEvents(5), universe.WithParallelism(2))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = got
		}(i)
	}
	// Concurrent readers of the base while extensions run.
	for _, ps := range []trace.ProcSet{base.All(), trace.Singleton("p")} {
		wg.Add(1)
		go func(ps trace.ProcSet) {
			defer wg.Done()
			base.Partition(ps)
			base.Transitions()
		}(ps)
	}
	wg.Wait()
	for i, got := range results {
		if got == nil {
			t.Fatalf("extension %d failed", i)
		}
		requireIdenticalUniverses(t, fmt.Sprintf("concurrent extension %d", i), got, want)
	}
}
