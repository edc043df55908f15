package universe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hpl/internal/trace"
)

// historyWeight gives distinct events mostly distinct weights, so a
// member summed over the wrong events shows.
func historyWeight(e trace.Event) int32 { return int32(eventHash(&e)%997) - 498 }

// requireHistorySums differences HistorySums against summing each
// member's own events.
func requireHistorySums(t *testing.T, label string, u *Universe) {
	t.Helper()
	sums := u.HistorySums(historyWeight)
	if len(sums) != u.Len() {
		t.Fatalf("%s: %d sums for %d members", label, len(sums), u.Len())
	}
	for j, got := range sums {
		var want int32
		for e := range u.At(j).Backward() {
			want += historyWeight(e)
		}
		if got != want {
			t.Fatalf("%s: member %d (%v) sums to %d, want %d", label, j, u.At(j), got, want)
		}
	}
}

// TestHistorySums checks the fold on enumerated universes at
// parallelism 1, 2 and 8, full and quotient, on their snapshot loads
// and extensions, and on a hand-built universe that is neither sorted
// nor prefix closed.
func TestHistorySums(t *testing.T) {
	p := NewFree(FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	g, err := FullSymmetry("p", "q", "r")
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []*Symmetry{nil, g} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("workers=%d quotient=%v", workers, sym != nil)
			opts := []Option{WithMaxEvents(4), WithParallelism(workers)}
			if sym != nil {
				opts = append(opts, WithSymmetry(sym))
			}
			u, err := EnumerateWith(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			requireHistorySums(t, label, u)
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, u, "d"); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireHistorySums(t, label+" snapshot load", loaded)
			x, err := Extend(u, WithMaxEvents(5), WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			requireHistorySums(t, label+" extension", x)
		}
	}

	// Every third member, shuffled: most prefixes are missing, so most
	// members sum their own chains, and parents follow their children.
	u := MustEnumerateWith(p, WithMaxEvents(5))
	var comps []*trace.Computation
	for i := 0; i < u.Len(); i += 3 {
		comps = append(comps, u.At(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(comps), func(i, j int) { comps[i], comps[j] = comps[j], comps[i] })
	requireHistorySums(t, "hand-built", New(comps, u.All()))
}

// TestInitialWithoutHashIndex checks that canonically ordered universes
// (enumerated, quotient, extended, snapshot-loaded) resolve the null
// computation as member 0 without building the hash index.
func TestInitialWithoutHashIndex(t *testing.T) {
	u := freeTwoProc(t, 3)
	g, err := FullSymmetry("p", "q")
	if err != nil {
		t.Fatal(err)
	}
	quotient := MustEnumerateWith(NewFree(FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1}),
		WithMaxEvents(3), WithSymmetry(g))
	x, err := Extend(u, WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, u, "d"); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		u    *Universe
	}{{"enumerated", u}, {"quotient", quotient}, {"extended", x}, {"snapshot", loaded}} {
		if got := c.u.Initial(); got != 0 {
			t.Errorf("%s: Initial() = %d, want 0", c.name, got)
		}
		if c.u.byHash != nil {
			t.Errorf("%s: Initial built the hash index", c.name)
		}
	}
}

// TestInitialNewUniverse checks Initial on hand-built universes, which
// may hold the null computation anywhere or not at all.
func TestInitialNewUniverse(t *testing.T) {
	u := freeTwoProc(t, 3)
	comps := u.Computations()
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	hand := New(comps, u.All())
	if got, want := hand.Initial(), len(comps)-1; got != want {
		t.Errorf("reversed universe: Initial() = %d, want %d", got, want)
	}
	if got := New(comps[:len(comps)-1], u.All()).Initial(); got != -1 {
		t.Errorf("universe without the null computation: Initial() = %d, want -1", got)
	}
}
